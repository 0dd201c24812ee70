#!/usr/bin/env python3
"""Repo-aware static analysis for cafe, past what lint_cafe's per-line
regexes can express. Two passes, both scope-sensitive:

  astcheck-view-escape
      A std::string_view / span / raw pointer derived from a mapping
      object (MmapFile::view()/data(), InvertedIndex, PostingSource) is
      stored into a class member or a member container. Views into a
      mapping are borrows: they die with the mapping (docs/DESIGN.md
      "zero-copy read path"), so parking one in state that outlives
      the stack frame is a use-after-munmap waiting for a remap.
      Storing a view derived from the *same object's own* mapping
      member (e.g. a view into InvertedIndex::mapping_ kept by that
      InvertedIndex) is allowed — member lifetimes are tied, that is
      the zero-copy design itself.

  astcheck-lock-scope
      A blocking call — read/write/pread/pwrite/recv/send/accept/
      connect/fsync/fdatasync, stdio output (fprintf/fflush), or the
      logging entry points (Log/LogInfo/LogWarning/LogError) — is made
      while a cafe::MutexLock is live in an enclosing scope. Blocking
      under a lock turns one slow fd into a convoy for every thread
      behind that mutex; stage the I/O outside the critical section
      (Dispatcher::Execute recording its FlightRecord before it takes
      the lock to count the request completed is the model).
      CondVar::Wait is exempt: it releases the lock while blocked.

A built-in single-pass lexer produces the line stream, with no
dependencies.

A finding on a line containing `NOLINT(astcheck-<rule>)` — or below a
`NOLINTNEXTLINE(astcheck-<rule>)` line — is suppressed; every
suppression must carry a comment arguing why the exception is sound.

Usage: tools/astcheck.py [repo-root]
           (exit 0 = clean, 1 = findings)
       tools/astcheck.py --selftest
           (verify both passes fire and NOLINT suppresses them)
"""

import argparse
import os
import re
import sys

from lint_cafe import strip_code_noise

RULE_VIEW = "astcheck-view-escape"
RULE_LOCK = "astcheck-lock-scope"

# Types whose instances own (or are) a memory mapping. A view derived
# from one of these is only valid while that object lives.
MAPPING_TYPES = ("MmapFile", "InvertedIndex", "PostingSource")

# Accessors on mapping objects that hand out borrowed views/pointers.
VIEW_ACCESSORS = ("view", "data")

# Calls that can block (or perform I/O) and therefore must not run
# under a MutexLock. Deliberately excluded: open/close (bounded, and
# teardown paths legitimately close under their shutdown lock),
# thread join (shutdowns join under only their serializing shutdown
# lock; the Listener's accept loop also joins ended connection threads
# while serving, and must do so outside its mu_ — unchecked here, so
# keep it that way by review), CondVar::Wait (releases the lock).
BLOCKING_CALLS = (
    "read", "write", "pread", "pwrite", "readv", "writev",
    "recv", "send", "accept", "connect", "fsync", "fdatasync",
    "fprintf", "fflush",
    "Log", "LogInfo", "LogWarning", "LogError",
)

BLOCKING_RE = re.compile(
    r"\b(?:" + "|".join(BLOCKING_CALLS) + r")\s*\(")
MUTEXLOCK_DECL_RE = re.compile(r"\b(?:cafe::)?MutexLock\s+\w+\s*[({]")
# `MmapFile file` / `const InvertedIndex& idx` / `MmapFile* f` — captures
# the declared name so the pass knows which identifiers are mappings.
MAPPING_DECL_RE = re.compile(
    r"\b(" + "|".join(MAPPING_TYPES) + r")\b[&*\s]+(\w+)\s*[,;=)({]")
# Local that borrows from a mapping: `auto v = file.view();`,
# `std::string_view s{m->data(), n};`, `const char* p = f.data();`.
VIEW_LOCAL_DECL_RE = re.compile(
    r"\b(?:auto|std::string_view|std::span<[^;=]*>|"
    r"(?:const\s+)?(?:char|uint8_t|std::uint8_t|std::byte)\s*\*)"
    r"[&*\s]*(\w+)\s*[={(]")
# Assignment into a member (trailing-underscore convention), directly
# or via this->.
MEMBER_ASSIGN_RE = re.compile(r"(?:this\s*->\s*)?\b(\w+_)\s*=[^=]")
# Mutation of a member container that copies its argument in.
CONTAINER_STORE_RE = re.compile(
    r"(?:this\s*->\s*)?\b(\w+_)\s*(?:\.|->)\s*"
    r"(?:push_back|emplace_back|emplace|insert|assign|push)\s*\(")


def code_lines(lines):
    """Yields (lineno, raw, code) with comments and literals removed
    from `code`, tracking block comments across lines."""
    in_block = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                yield lineno, raw, ""
                continue
            line = line[end + 2:]
            in_block = False
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + line[end + 2:]
        yield lineno, raw, strip_code_noise(line)


def brace_delta(code):
    return code.count("{") - code.count("}")


def view_exprs(code, mappings):
    """Names of mapping objects whose view()/data() is called in
    `code`, e.g. `file.view()` -> 'file'. Returns [(name, accessor)]."""
    out = []
    for m in re.finditer(
            r"\b(\w+)\s*(?:\.|->)\s*(" + "|".join(VIEW_ACCESSORS) +
            r")\s*\(", code):
        if m.group(1) in mappings:
            out.append((m.group(1), m.group(2)))
    return out


class _Reporter:
    """NOLINT-aware findings sink, same contract as lint_cafe."""

    def __init__(self, relpath, findings):
        self.relpath = relpath
        self.findings = findings
        self.prev_raw = ""

    def report(self, lineno, raw, rule, message):
        if f"NOLINT({rule})" not in raw and \
                f"NOLINTNEXTLINE({rule})" not in self.prev_raw:
            self.findings.append((self.relpath, lineno, rule, message))

    def advance(self, raw):
        self.prev_raw = raw


def check_lock_scope(relpath, lines, findings):
    """Flags blocking calls made while a MutexLock is live in an
    enclosing scope. Scope tracking is brace depth: a lock declared at
    depth d dies when depth drops below d. A function whose signature
    carries CAFE_REQUIRES(...) runs with the lock already held, so its
    whole body counts as a lock scope too."""
    rep = _Reporter(relpath, findings)
    depth = 0
    lock_depths = []  # brace depth at each live MutexLock declaration
    # A CAFE_REQUIRES seen on a signature still waiting for its `{`
    # (definition) or `;` (pure declaration — no body to guard).
    pending_requires = False
    for lineno, raw, code in code_lines(lines):
        # Close scopes first: a leading `}` ends locks before anything
        # else on the line runs.
        closing = len(code) - len(code.lstrip("} \t"))
        pre_depth = depth - code[:closing].count("}")
        while lock_depths and pre_depth < lock_depths[-1]:
            lock_depths.pop()

        if lock_depths and BLOCKING_RE.search(code):
            call = BLOCKING_RE.search(code).group(0).rstrip("( \t")
            rep.report(
                lineno, raw, RULE_LOCK,
                f"blocking call {call}() while a MutexLock is live; "
                "stage the I/O outside the critical section")

        depth += brace_delta(code)
        while lock_depths and depth < lock_depths[-1]:
            lock_depths.pop()

        is_directive = code.lstrip().startswith("#")
        requires_at = -1 if is_directive else code.find("CAFE_REQUIRES")
        scan_from = 0
        if requires_at >= 0:
            pending_requires = True
            scan_from = requires_at
        if pending_requires and not is_directive:
            rest = code[scan_from:]
            brace = rest.find("{")
            semi = rest.find(";")
            if brace >= 0 and (semi < 0 or brace < semi):
                lock_depths.append(depth if depth > 0 else 1)
                pending_requires = False
            elif semi >= 0:
                pending_requires = False

        if MUTEXLOCK_DECL_RE.search(code):
            lock_depths.append(depth if depth > 0 else 1)
        rep.advance(raw)


def check_view_escape(relpath, lines, findings):
    """Flags mapping-derived views stored into members or member
    containers. A view whose mapping is itself a member of the same
    class (name ends in '_') is lifetime-tied and allowed."""
    rep = _Reporter(relpath, findings)
    mappings = set()  # identifiers declared with a mapping type
    # local name -> True when derived from a NON-member mapping
    tainted = {}

    def external_sources(code):
        """Mapping names with a view accessor called on them in `code`
        where the mapping is not a member of the current class."""
        return [name for name, _ in view_exprs(code, mappings)
                if not name.endswith("_")]

    def tainted_in(code, exclude=None):
        return [name for name in tainted
                if name != exclude
                and tainted[name]
                and re.search(r"\b" + re.escape(name) + r"\b", code)]

    for lineno, raw, code in code_lines(lines):
        for m in MAPPING_DECL_RE.finditer(code):
            mappings.add(m.group(2))

        # Track locals borrowing from a mapping (or from another
        # tainted local) — one level of propagation is enough for the
        # patterns that occur in practice.
        decl = VIEW_LOCAL_DECL_RE.search(code)
        if decl and not decl.group(1).endswith("_"):
            init = code[decl.end(1):]
            ext = [name for name, _ in view_exprs(init, mappings)
                   if not name.endswith("_")]
            if ext or tainted_in(init, exclude=decl.group(1)):
                tainted[decl.group(1)] = True

        # Store into a member: `view_ = file.view();` or
        # `ptr_ = borrowed;` where `borrowed` is tainted.
        assign = MEMBER_ASSIGN_RE.search(code)
        if assign:
            member = assign.group(1)
            rhs = code[assign.end(1):]
            sources = external_sources(rhs) + tainted_in(rhs)
            if sources:
                rep.report(
                    lineno, raw, RULE_VIEW,
                    f"member {member} stores a view borrowed from "
                    f"mapping '{sources[0]}' that it does not own; "
                    "copy the bytes or tie the mapping's lifetime to "
                    "this object")

        # Store into a member container: `views_.push_back(v);`.
        store = CONTAINER_STORE_RE.search(code)
        if store:
            args = code[store.end():]
            sources = external_sources(args) + tainted_in(args)
            if sources:
                rep.report(
                    lineno, raw, RULE_VIEW,
                    f"container {store.group(1)} keeps a view borrowed "
                    f"from mapping '{sources[0]}' past the call; copy "
                    "the bytes or index by offset instead")
        rep.advance(raw)


def analyze_lines(relpath, lines, findings):
    check_lock_scope(relpath, lines, findings)
    check_view_escape(relpath, lines, findings)


def analyze_file(root, relpath, findings):
    with open(os.path.join(root, relpath), encoding="utf-8") as f:
        lines = f.read().split("\n")
    analyze_lines(relpath, lines, findings)


# -------------------------------------------------------------------
# Selftest fixtures: (file, source, rule that must fire — or None for
# must-stay-clean). Both passes appear firing, suppressed, and on the
# allowed patterns they must NOT flag.

SELFTEST_CASES = [
    # --- lock-scope: positives -------------------------------------
    ("src/a/b.cc",
     "void F() {\n"
     "  MutexLock lock(&mu_);\n"
     "  fprintf(stderr, \"x\");\n"
     "}", RULE_LOCK),
    ("src/a/b.cc",
     "void F() {\n"
     "  cafe::MutexLock lock(&mu_);\n"
     "  Log(obs::LogLevel::kInfo, \"x\");\n"
     "}", RULE_LOCK),
    ("src/a/b.cc",
     "void F(int fd) {\n"
     "  MutexLock lock(&mu_);\n"
     "  if (ready_) {\n"
     "    send(fd, buf, n, 0);\n"
     "  }\n"
     "}", RULE_LOCK),  # lock live in an *enclosing* scope
    ("src/a/b.cc",
     "void F(std::ifstream& f) {\n"
     "  MutexLock lock(&mu_);\n"
     "  f.read(buf, n);\n"
     "}", RULE_LOCK),  # member-call spelling of a blocking op
    # --- lock-scope: negatives -------------------------------------
    ("src/a/b.cc",
     "void F() {\n"
     "  {\n"
     "    MutexLock lock(&mu_);\n"
     "    ++count_;\n"
     "  }\n"
     "  fsync(fd_);\n"
     "}", None),  # lock scope closed before the I/O
    ("src/a/b.cc",
     "void F() {\n"
     "  MutexLock lock(&mu_);\n"
     "  while (!done_) cv_.Wait(&mu_);\n"
     "}", None),  # CondVar::Wait releases the lock: exempt
    ("src/a/b.cc",
     "void F() {\n"
     "  fprintf(stderr, \"no lock\");\n"
     "}", None),
    ("src/a/b.cc",
     "void F() {\n"
     "  MutexLock lock(&mu_);\n"
     "  // the sink write IS the critical section here\n"
     "  fflush(sink_);  // NOLINT(astcheck-lock-scope)\n"
     "}", None),
    ("src/a/b.cc",
     "void F() {\n"
     "  MutexLock lock(&mu_);\n"
     "  // NOLINTNEXTLINE(astcheck-lock-scope) — sink write is the CS\n"
     "  fprintf(sink_, \"x\");\n"
     "}", None),
    ("src/a/b.cc",
     "void F() {\n"
     "  MutexLock lock(&mu_);\n"
     "  spread(x);  thread_t t;  // 'read' inside other identifiers\n"
     "}", None),
    ("src/a/b.cc",
     "Status C::Fill(uint32_t term) const CAFE_REQUIRES(mu_) {\n"
     "  file_.read(buf, n);\n"
     "  return Status::OK();\n"
     "}", RULE_LOCK),  # REQUIRES body: the caller holds the lock
    ("src/a/b.h",
     "class C {\n"
     "  Status Fill(uint32_t term) const CAFE_REQUIRES(mu_);\n"
     "};\n"
     "inline void Free() { fsync(3); }", None),  # declaration only
    # --- view-escape: positives ------------------------------------
    ("src/a/b.cc",
     "void Load(const MmapFile& file) {\n"
     "  view_ = file.view();\n"
     "}", RULE_VIEW),  # the seeded violation: member outlives mapping
    ("src/a/b.cc",
     "void Load(const MmapFile& file) {\n"
     "  auto v = file.view();\n"
     "  view_ = v;\n"
     "}", RULE_VIEW),  # …via a borrowing local
    ("src/a/b.cc",
     "void Load(InvertedIndex* idx) {\n"
     "  ptr_ = idx->data();\n"
     "}", RULE_VIEW),
    ("src/a/b.cc",
     "void Load(const MmapFile& file) {\n"
     "  std::string_view v = file.view();\n"
     "  auto w = v;\n"
     "  views_.push_back(w);\n"
     "}", RULE_VIEW),  # container store, two-hop borrow
    # --- view-escape: negatives ------------------------------------
    ("src/a/b.cc",
     "void InvertedIndex::Attach() {\n"
     "  blob_ = mapping_.data() + blob_offset_;\n"
     "}", None),  # same-object store: file_ is our own member
    ("src/a/b.cc",
     "void Scan(const MmapFile& file) {\n"
     "  std::string_view v = file.view();\n"
     "  Decode(v);\n"
     "}", None),  # borrow stays on the stack
    ("src/a/b.cc",
     "void Load(const MmapFile& file) {\n"
     "  name_ = std::string(file.view());\n"
     "}", RULE_VIEW),  # conservative: flags even through std::string()
    ("src/a/b.cc",
     "void Load(const MmapFile& file) {\n"
     "  // offsets are values, not borrows\n"
     "  size_ = file.size();\n"
     "}", None),
    ("src/a/b.cc",
     "void Load(const MmapFile& file) {\n"
     "  // lifetime tied: *this owns the mapping, see Open()\n"
     "  view_ = file.view();  // NOLINT(astcheck-view-escape)\n"
     "}", None),
    ("src/a/b.cc",
     "void F(const Blob& blob) {\n"
     "  view_ = blob.view();\n"
     "}", None),  # not a mapping type: out of scope
]


def selftest():
    failures = []
    for i, (relpath, source, want_rule) in enumerate(SELFTEST_CASES):
        findings = []
        analyze_lines(relpath, source.split("\n"), findings)
        rules = [f[2] for f in findings]
        if want_rule is None and rules:
            failures.append(
                f"case {i} ({source.splitlines()[1]!r}...): "
                f"unexpected {rules}")
        elif want_rule is not None and want_rule not in rules:
            failures.append(
                f"case {i} ({source.splitlines()[1]!r}...): "
                f"expected {want_rule}, got {rules}")
    for failure in failures:
        print(f"selftest: {failure}")
    print(f"astcheck --selftest: {len(SELFTEST_CASES)} cases, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="cafe repo-aware static analysis")
    parser.add_argument("root", nargs="?", default=".",
                        help="repo root (default: .)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixture suite and exit")
    opts = parser.parse_args()

    if opts.selftest:
        return selftest()

    targets = []
    for dirpath, _, names in os.walk(os.path.join(opts.root, "src")):
        for name in sorted(names):
            if name.endswith((".h", ".cc")):
                rel = os.path.relpath(os.path.join(dirpath, name),
                                      opts.root)
                targets.append(rel.replace(os.sep, "/"))
    targets.sort()

    findings = []
    for rel in targets:
        analyze_file(opts.root, rel, findings)

    for relpath, lineno, rule, message in findings:
        print(f"{relpath}:{lineno}: [{rule}] {message}")
    print(f"astcheck: {len(targets)} files, "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
