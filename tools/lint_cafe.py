#!/usr/bin/env python3
"""Repo-specific lint for cafe.

Checks that clang-tidy / compiler warnings cannot express:

  include-guard   src/ header guards must be CAFE_<PATH>_H_
                  (src/util/check.h -> CAFE_UTIL_CHECK_H_)
  no-throw        library code under src/ never throws; fallible APIs
                  return Status/Result (see src/util/status.h)
  no-naked-new    no `new`/`delete` expressions under src/ — ownership
                  goes through smart pointers and containers
  no-raw-assert   no raw assert() under src/ — use CAFE_CHECK /
                  CAFE_DCHECK from util/check.h (static_assert is fine)
  no-std-thread   std::thread only inside src/util/thread_pool.* and
                  src/server/listener.* (the connection core owns the
                  blocking accept thread and one thread per connection)
                  — all other code, the dispatcher's search threads
                  included, schedules onto ThreadPool, so a second
                  thread pool cannot creep back into the server
  no-adhoc-chrono no direct std::chrono in src/search/ or src/index/ —
                  hot-path timing goes through util/timer.h (WallTimer)
                  or the obs/ spans, so traces stay consistent
  no-raw-socket   socket headers (sys/socket.h, netinet/*, arpa/inet.h,
                  netdb.h) only under src/server/ — the network edge
                  stays in one subsystem
  no-raw-fprintf  no printf/fprintf logging in src/server/ or
                  tools/cafe_serve.cc — the serving path logs through
                  obs::Log (timestamp, severity, trace id), so server
                  output is uniformly greppable and joinable with the
                  flight recorder (snprintf formatting is fine)
  no-raw-mutex    no std::mutex / std::lock_guard / std::unique_lock /
                  std::condition_variable (or their timed/recursive/
                  shared variants) outside src/util/mutex.h — locking
                  goes through cafe::Mutex so every locking invariant
                  carries thread safety annotations and is checked by
                  clang -Wthread-safety (same confinement pattern as
                  std::thread -> ThreadPool)
  one-postings-pass  under src/search/, only coarse.cc calls
                  ForEachPosting / ScanPostings — a query's postings are
                  decoded once, by the coarse pass, and later stages
                  (chaining) read what it carries on CoarseCandidate
  no-engine-metrics  src/align/ and src/search/ never touch the metrics
                  registry: no obs/metrics.h include, no GetCounter /
                  GetHistogram, no obs::Counter / obs::Histogram.
                  Per-query facts go on SearchTrace, and the serving
                  layer (server/dispatcher.cc) records them, once per
                  request
  justified-escape-hatch  CAFE_NO_THREAD_SAFETY_ANALYSIS outside its
                  definition in src/util/mutex.h carries a justification
                  comment on the same or the previous line (the contract
                  in src/util/mutex.h): an exemption from clang
                  -Wthread-safety says why it is sound

Files under tools/ are binaries, not library code; only the fprintf
rule applies there, and only to cafe_serve.cc (the long-running
daemon — one-shot CLI tools print to stdout by design).

A finding on a line containing `NOLINT(cafe-<rule>)` — or directly
below a `NOLINTNEXTLINE(cafe-<rule>)` line — is suppressed; use this
only with a comment explaining why the exception is sound.

Usage: tools/lint_cafe.py [repo-root]     (exit 0 = clean, 1 = findings)
       tools/lint_cafe.py --selftest      (verify every rule fires and
                                           NOLINT suppresses it)
"""

import os
import re
import sys

RULE_GUARD = "cafe-include-guard"
RULE_THROW = "cafe-no-throw"
RULE_NEW = "cafe-no-naked-new"
RULE_ASSERT = "cafe-no-raw-assert"
RULE_THREAD = "cafe-no-std-thread"
RULE_CHRONO = "cafe-no-adhoc-chrono"
RULE_SOCKET = "cafe-no-raw-socket"
RULE_FPRINTF = "cafe-no-raw-fprintf"
RULE_MUTEX = "cafe-no-raw-mutex"
RULE_POSTINGS = "cafe-one-postings-pass"
RULE_ENGINE_METRICS = "cafe-no-engine-metrics"
RULE_ESCAPE = "cafe-justified-escape-hatch"

THROW_RE = re.compile(r"\bthrow\b")
# `new X`, `new (nothrow) X`, `new X[...]`; `delete p`, `delete[] p`.
# `= delete` (deleted special members) is not a delete-expression.
NEW_RE = re.compile(r"\bnew\b(?!\s*\()|(?<![=\s])\s*\bdelete\b|^\s*delete\b")
ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
THREAD_RE = re.compile(r"\bstd::thread\b")
CHRONO_RE = re.compile(r"\bstd::chrono\b")
SOCKET_RE = re.compile(r"#\s*include\s*<(sys/socket|netinet/|arpa/inet|netdb)")
# printf/fprintf calls (with or without std::). The lookbehind keeps
# snprintf/vfprintf (formatting, not output) from matching.
FPRINTF_RE = re.compile(r"(?<!\w)(?:std::)?f?printf\s*\(")
MUTEX_RE = re.compile(
    r"\bstd::(?:(?:timed_|recursive_|recursive_timed_|shared_|"
    r"shared_timed_)?mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?)\b")
POSTINGS_RE = re.compile(r"\b(?:ForEachPosting|ScanPostings)\s*\(")
# Matched before string literals are stripped: the path is a literal.
METRICS_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"obs/metrics\.h"')
ENGINE_METRICS_RE = re.compile(
    r"\bGet(?:Counter|Histogram)\s*\(|\bobs::(?:Counter|Histogram)\b")
ESCAPE_RE = re.compile(r"\bCAFE_NO_THREAD_SAFETY_ANALYSIS\b")


def strip_code_noise(line):
    """Removes string/char literals and // comments so the regexes only
    see code. Block comments are handled by the caller's state."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            i += 1
            out.append(quote + quote)  # keep an empty literal as a token
            continue
        out.append(c)
        i += 1
    return "".join(out)


def expected_guard(relpath):
    # src/util/check.h -> CAFE_UTIL_CHECK_H_
    inner = relpath[len("src/"):]
    return "CAFE_" + re.sub(r"[/.]", "_", inner.upper()) + "_"


def lint_file(root, relpath, findings):
    path = os.path.join(root, relpath)
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    lint_lines(relpath, lines, findings)


def lint_lines(relpath, lines, findings):
    is_header = relpath.endswith(".h")
    thread_ok = relpath.startswith(("src/util/thread_pool.",
                                    "src/server/listener."))
    mutex_ok = relpath == "src/util/mutex.h"
    socket_ok = relpath.startswith("src/server/")
    chrono_scoped = relpath.startswith(("src/search/", "src/index/"))
    postings_scoped = (relpath.startswith("src/search/")
                       and relpath != "src/search/coarse.cc")
    engine_scoped = relpath.startswith(("src/align/", "src/search/"))
    fprintf_scoped = (relpath.startswith("src/server/")
                      or relpath == "tools/cafe_serve.cc")
    # tools/ entries are binaries; only the fprintf rule applies there.
    tools_file = not relpath.startswith("src/")

    if is_header and not tools_file:
        want = expected_guard(relpath)
        guard = None
        for ln in lines:
            m = re.match(r"\s*#ifndef\s+(\S+)", ln)
            if m:
                guard = m.group(1)
                break
        if guard != want:
            findings.append(
                (relpath, 1, RULE_GUARD,
                 f"include guard is {guard!r}, expected {want!r}"))

    in_block_comment = False
    prev_raw = ""
    for lineno, raw in enumerate(lines, start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        # Drop /* ... */ spans (single-line, or open-ended to EOL).
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]

        code = strip_code_noise(line)

        def report(rule, message):
            if f"NOLINT({rule})" in raw:
                return
            if f"NOLINTNEXTLINE({rule})" in prev_raw:
                return
            findings.append((relpath, lineno, rule, message))

        if FPRINTF_RE.search(code) and fprintf_scoped:
            report(RULE_FPRINTF,
                   "raw printf/fprintf in the serving path; log through "
                   "obs::Log (src/obs/log.h)")
        if tools_file:
            prev_raw = raw
            continue  # only the fprintf rule applies outside src/

        if THROW_RE.search(code):
            report(RULE_THROW,
                   "library code must return Status, not throw")
        if NEW_RE.search(code):
            report(RULE_NEW,
                   "naked new/delete; use smart pointers or containers")
        m = ASSERT_RE.search(code)
        if m and "static_assert" not in code[:m.start() + 6]:
            report(RULE_ASSERT,
                   "raw assert(); use CAFE_CHECK / CAFE_DCHECK "
                   "(util/check.h)")
        if THREAD_RE.search(code) and not thread_ok:
            report(RULE_THREAD,
                   "std::thread outside src/util/thread_pool.* or "
                   "src/server/listener.*; use ThreadPool")
        if MUTEX_RE.search(code) and not mutex_ok:
            report(RULE_MUTEX,
                   "raw std locking primitive; use cafe::Mutex / "
                   "MutexLock / CondVar (util/mutex.h) so the "
                   "invariants carry thread safety annotations")
        if CHRONO_RE.search(code) and chrono_scoped:
            report(RULE_CHRONO,
                   "ad-hoc std::chrono in search/index code; time with "
                   "util/timer.h (WallTimer) or obs/ spans")
        if SOCKET_RE.search(code) and not socket_ok:
            report(RULE_SOCKET,
                   "socket headers outside src/server/; the network "
                   "edge lives in the server subsystem")
        if POSTINGS_RE.search(code) and postings_scoped:
            report(RULE_POSTINGS,
                   "postings decoded outside the coarse pass; read the "
                   "anchors CoarseRanker::Rank carries instead")
        if engine_scoped and (METRICS_INCLUDE_RE.search(line)
                              or ENGINE_METRICS_RE.search(code)):
            report(RULE_ENGINE_METRICS,
                   "metrics registry in engine code; put the per-query "
                   "fact on SearchTrace (the dispatcher records it)")
        if (ESCAPE_RE.search(code) and not mutex_ok
                and "//" not in raw and "//" not in prev_raw):
            report(RULE_ESCAPE,
                   "unjustified CAFE_NO_THREAD_SAFETY_ANALYSIS; say why "
                   "the exemption is sound in a comment on this or the "
                   "previous line (src/util/mutex.h)")
        prev_raw = raw


# (file, line, rule that must fire — or None for must-stay-clean).
# Every rule appears at least once firing and once NOLINT-suppressed, so
# a regression in either direction fails the selftest.
SELFTEST_CASES = [
    ("src/util/foo.h", "#ifndef WRONG_GUARD_H_", RULE_GUARD),
    ("src/util/foo.h", "#ifndef CAFE_UTIL_FOO_H_", None),
    ("src/a/b.cc", 'throw std::runtime_error("x");', RULE_THROW),
    ("src/a/b.cc", "auto* p = new int;", RULE_NEW),
    ("src/a/b.cc", "delete p;", RULE_NEW),
    ("src/a/b.cc", "Foo(const Foo&) = delete;", None),
    ("src/a/b.cc", "assert(x > 0);", RULE_ASSERT),
    ("src/a/b.cc", "static_assert(sizeof(int) == 4);", None),
    ("src/a/b.cc", "std::thread t(run);", RULE_THREAD),
    ("src/util/thread_pool.cc", "std::thread t(run);", None),
    ("src/server/listener.cc", "std::thread t(run);", None),
    ("src/server/listener.h",
     "#ifndef CAFE_SERVER_LISTENER_H_\nstd::thread accept_thread_;", None),
    # The rest of the server uses the Listener's threads or ThreadPool.
    ("src/server/server.cc", "std::thread t(run);", RULE_THREAD),
    ("src/server/dispatcher.h",
     "#ifndef CAFE_SERVER_DISPATCHER_H_\n"
     "std::vector<std::thread> workers_;", RULE_THREAD),
    ("src/a/b.cc", "std::mutex mu;", RULE_MUTEX),
    ("src/a/b.cc", "std::lock_guard<std::mutex> lock(mu);", RULE_MUTEX),
    ("src/a/b.cc", "std::unique_lock<std::mutex> lock(mu);", RULE_MUTEX),
    ("src/a/b.cc", "std::scoped_lock lock(a, b);", RULE_MUTEX),
    ("src/a/b.cc", "std::shared_mutex rw;", RULE_MUTEX),
    ("src/a/b.cc", "std::recursive_mutex mu;", RULE_MUTEX),
    ("src/a/b.cc", "std::condition_variable cv;", RULE_MUTEX),
    ("src/server/http.cc", "std::mutex mu;", RULE_MUTEX),
    # The one home raw primitives are allowed: the wrapper itself.
    ("src/util/mutex.h",
     "#ifndef CAFE_UTIL_MUTEX_H_\nstd::mutex mu_;", None),
    ("src/util/mutex.h",
     "#ifndef CAFE_UTIL_MUTEX_H_\n"
     "std::unique_lock<std::mutex> native(mu->mu_);", None),
    ("src/util/mutex.h",
     "#ifndef CAFE_UTIL_MUTEX_H_\nstd::condition_variable cv_;", None),
    ("src/a/b.cc", "cafe::Mutex mu_;", None),
    ("src/a/b.cc", "MutexLock lock(&mu_);", None),
    ("src/a/b.cc", "// std::mutex is banned here", None),
    ("src/a/b.cc", "std::mutex mu;  // NOLINT(cafe-no-raw-mutex)", None),
    ("src/a/b.cc", "#include <sys/socket.h>", RULE_SOCKET),
    ("src/a/b.cc", "#include <netinet/in.h>", RULE_SOCKET),
    ("src/a/b.cc", "#include <arpa/inet.h>", RULE_SOCKET),
    ("src/a/b.cc", "#include <netdb.h>", RULE_SOCKET),
    ("src/server/server.cc", "#include <sys/socket.h>", None),
    ("src/server/client.cc", "#include <arpa/inet.h>", None),
    ("src/a/b.cc", "#include <netinet/in.h>  "
     "// NOLINT(cafe-no-raw-socket)", None),
    ("src/search/x.cc", "auto t0 = std::chrono::steady_clock::now();",
     RULE_CHRONO),
    ("src/index/x.cc", "std::chrono::milliseconds d(1);", RULE_CHRONO),
    ("src/util/x.cc", "std::chrono::milliseconds d(1);", None),
    ("src/search/x.cc", "WallTimer total;", None),
    ("src/search/chain.cc", "index.ForEachPosting(term, fn);",
     RULE_POSTINGS),
    ("src/search/x.cc", "source->ScanPostings(term, count);",
     RULE_POSTINGS),
    # The one pass over the postings, and code outside src/search/.
    ("src/search/coarse.cc", "index_->ForEachPosting(term, fn);", None),
    ("src/index/inverted_index.cc", "ForEachPosting(term, fn);", None),
    ("src/search/chain.cc", "// chaining calls no ForEachPosting()", None),
    ("src/search/chain.cc",
     "index.ForEachPosting(term, fn);  // NOLINT(cafe-one-postings-pass)",
     None),
    # The engines' metric mirrors that SearchTrace replaced.
    ("src/search/chain.cc", '#include "obs/metrics.h"',
     RULE_ENGINE_METRICS),
    ("src/search/chain.cc", "std::atomic<obs::Counter*> g_kept{nullptr};",
     RULE_ENGINE_METRICS),
    ("src/search/chain.cc",
     'g_kept.store(registry->GetCounter("chain.candidates_kept"),',
     RULE_ENGINE_METRICS),
    ("src/align/sw_simd.cc", '#include "obs/metrics.h"',
     RULE_ENGINE_METRICS),
    ("src/align/sw_simd.cc",
     "std::atomic<obs::Counter*> g_striped_scores{nullptr};",
     RULE_ENGINE_METRICS),
    ("src/align/sw_simd.cc",
     "obs::Counter* counter = g_striped_fallbacks.load();",
     RULE_ENGINE_METRICS),
    ("src/search/x.h", "obs::Histogram* latency_ = nullptr;",
     RULE_ENGINE_METRICS),
    ("src/search/x.cc", 'm->GetHistogram("x.micros")->Record(1);',
     RULE_ENGINE_METRICS),
    # The serving layer and the index's open-time facts may record.
    ("src/server/dispatcher.cc",
     'm->GetCounter("server.requests_accepted");', None),
    ("src/index/index_io.cc", '#include "obs/metrics.h"', None),
    ("src/search/x.cc", '#include "obs/trace.h"', None),
    ("src/search/x.cc", "obs::SearchTrace* trace = nullptr;", None),
    ("src/search/x.cc", "// no GetCounter( here: use SearchTrace", None),
    ("src/align/x.cc",
     '#include "obs/metrics.h"  // NOLINT(cafe-no-engine-metrics)', None),
    # Thread-safety escape hatches carry their justification.
    ("src/a/b.cc", "void Reset() CAFE_NO_THREAD_SAFETY_ANALYSIS {",
     RULE_ESCAPE),
    ("src/a/b.cc",
     "// Runs before any worker starts.\nint n = 0;\n"
     "void Reset() CAFE_NO_THREAD_SAFETY_ANALYSIS {", RULE_ESCAPE),
    ("src/a/b.cc",
     "void Reset() CAFE_NO_THREAD_SAFETY_ANALYSIS {  // single-threaded",
     None),
    ("src/a/b.cc",
     "// Runs before any worker starts.\n"
     "void Reset() CAFE_NO_THREAD_SAFETY_ANALYSIS {", None),
    ("src/util/mutex.h",
     "#ifndef CAFE_UTIL_MUTEX_H_\n#define CAFE_NO_THREAD_SAFETY_ANALYSIS \\",
     None),
    ("src/a/b.cc", 'const char* s = "CAFE_NO_THREAD_SAFETY_ANALYSIS";',
     None),
    ("src/a/b.cc", "// std::thread belongs in thread_pool", None),
    ("src/a/b.cc", 'const char* s = "std::thread";', None),
    ("src/a/b.cc", "/* assert(x) */ int y = 0;", None),
    ("src/a/b.cc", "throw 1;  // NOLINT(cafe-no-throw)", None),
    ("src/a/b.cc", "auto* p = new int;  // NOLINT(cafe-no-naked-new)",
     None),
    ("src/a/b.cc", "assert(x);  // NOLINT(cafe-no-raw-assert)", None),
    ("src/a/b.cc", "std::thread t;  // NOLINT(cafe-no-std-thread)", None),
    ("src/search/x.cc",
     "std::chrono::seconds s(1);  // NOLINT(cafe-no-adhoc-chrono)", None),
    ("src/server/server.cc", 'std::fprintf(stderr, "x\\n");',
     RULE_FPRINTF),
    ("src/server/http.cc", 'printf("x\\n");', RULE_FPRINTF),
    ("tools/cafe_serve.cc", 'std::fprintf(stderr, "x\\n");',
     RULE_FPRINTF),
    # snprintf is formatting, not output.
    ("src/server/server.cc", "std::snprintf(buf, sizeof(buf), \"x\");",
     None),
    # Out of scope: library code away from the serving path, and
    # one-shot CLI tools, may print.
    ("src/obs/metrics.cc", 'std::fprintf(stderr, "x\\n");', None),
    ("tools/cafe_cli.cc", 'std::printf("x\\n");', None),
    # Only the fprintf rule applies to tools/ files.
    ("tools/cafe_serve.cc", "std::thread t(run);", None),
    ("src/server/server.cc",
     'std::fprintf(f, "%u", p);  // NOLINT(cafe-no-raw-fprintf)', None),
    ("tools/cafe_serve.cc",
     "// NOLINTNEXTLINE(cafe-no-raw-fprintf) — data file, not a log.\n"
     'std::fprintf(f, "%u", p);', None),
]


def selftest():
    failures = []
    for i, (relpath, line, want_rule) in enumerate(SELFTEST_CASES):
        findings = []
        lint_lines(relpath, line.split("\n"), findings)
        rules = [f[2] for f in findings]
        if want_rule is None and rules:
            failures.append(f"case {i} ({line!r}): unexpected {rules}")
        elif want_rule is not None and want_rule not in rules:
            failures.append(
                f"case {i} ({line!r}): expected {want_rule}, got {rules}")
    for failure in failures:
        print(f"selftest: {failure}")
    print(f"lint_cafe --selftest: {len(SELFTEST_CASES)} cases, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--selftest":
        return selftest()
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    targets = []
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in sorted(names):
            if name.endswith((".h", ".cc")):
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                targets.append(rel.replace(os.sep, "/"))
    # The long-running daemon is held to the structured-logging rule.
    if os.path.exists(os.path.join(root, "tools", "cafe_serve.cc")):
        targets.append("tools/cafe_serve.cc")
    targets.sort()

    findings = []
    for rel in targets:
        lint_file(root, rel, findings)

    for relpath, lineno, rule, message in findings:
        print(f"{relpath}:{lineno}: [{rule}] {message}")
    print(f"lint_cafe: {len(targets)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
