#!/usr/bin/env python3
"""Doc/code cross-checks: the metric catalogue and the code inventories.

docs/OBSERVABILITY.md claims to document every counter and histogram
name. This check keeps that true in both directions, grep-style:

  code -> doc   every string literal passed to GetCounter("...") or
                GetHistogram("...") under src/ and tools/ must appear
                in docs/OBSERVABILITY.md — and so must the Prometheus
                name it exports as on /metrics (`cafe_` prefix, dots to
                underscores, `_total` suffix for counters; the mapping
                in MetricsRegistry::SnapshotPrometheus). The search.*
                metrics have no literals: the dispatcher records one
                per SearchTrace field, so their names come from the
                fields declared in src/obs/trace.h — `search.<field>`,
                a counter for each uint64_t field and a histogram for
                each double *_micros field
  doc -> code   every metric name in the catalogue tables (rows of the
                form `| `name` | ...`) must appear as such a literal or
                SearchTrace field, and every documented Prometheus name
                (`cafe_...` in backticks) must be one a code metric
                actually exports

docs/OBSERVABILITY.md also claims to catalogue every span name a
timeline can contain (the `/tracez` view). Same bidirectional
contract:

  code -> doc   every string literal passed to StartSpan("..."),
                AddSpan("...") or the RAII `obs::Span` constructor
                under src/ and tools/ (outside src/obs/span.h, which
                defines the type) must have a span-catalogue row
  doc -> code   every span row (`| `name` | `parent` | `src/...` |`)
                must name a file that really records that span

docs/ARCHITECTURE.md ("Concurrency invariants") claims to inventory
every mutex in the tree. Same bidirectional contract:

  code -> doc   every `Mutex <name>` declaration under src/ (outside
                src/util/mutex.h, which defines the type) must have an
                inventory row naming it and its declaring file
  doc -> code   every inventory row (`| `Owner::name` | `src/...` |`)
                must point at a file that really declares that Mutex

docs/PERFORMANCE.md claims to inventory every runtime-dispatched SIMD
kernel and every benchmark binary. Same contract, twice over:

  code -> doc   every `__attribute__((target("...")))` function under
                src/ must have a dispatch-table row naming it and its
                defining file; every cafe_add_bench/cafe_add_micro
                target in bench/CMakeLists.txt must be mentioned
  doc -> code   every dispatch-table row (`| `Kernel` | `src/...` |`)
                must point at a file that really defines that kernel
                with a target attribute, and every backticked
                `bench_*` name must be a registered bench target

docs/FORMATS.md claims to document every file format. Same contract:

  code -> doc   every 8-byte magic literal under src/ (seven characters
                and a NUL, written "CAFCOL2\\0") must be named in a
                `— magic` heading of docs/FORMATS.md
  doc -> code   every magic such a heading names must be a literal
                under src/

Usage: tools/doccheck.py [repo-root]      (exit 0 = consistent)
"""

import os
import re
import sys

GET_RE = re.compile(r'Get(Counter|Histogram)\(\s*"([^"]+)"')
# Metric rows carry a bare counter/histogram type cell, which is what
# tells them apart from the span-catalogue rows in the same document.
DOC_ROW_RE = re.compile(
    r"^\|\s*`([a-z0-9_]+\.[a-z0-9_]+)`\s*\|\s*(?:counter|histogram)\s*\|")
DOC_PROM_RE = re.compile(r"`(cafe_[a-z0-9_]+)`")
DOC_PATH = "docs/OBSERVABILITY.md"

TRACE_PATH = "src/obs/trace.h"
# SearchTrace's data members: `uint64_t queries = 0;`,
# `double coarse_micros = 0.0;`.
TRACE_FIELD_RE = re.compile(r"^\s*(uint64_t|double)\s+(\w+)\s*=", re.M)

# Span recording sites: explicit StartSpan/AddSpan calls plus the RAII
# wrapper (`obs::Span span(recorder, "name")`, optionally followed by
# the µs sink it also fills).
SPAN_CALL_RE = re.compile(r'(?:StartSpan|AddSpan)\(\s*"([^"]+)"')
SPAN_RAII_RE = re.compile(r'obs::Span\s+\w+\([^;]*?,\s*"([^"]+)"')
# Span-catalogue rows: | `queue.wait` | `request` | `src/server/…` | …
# (the parent cell is `root` for top-level spans).
SPAN_ROW_RE = re.compile(
    r"^\|\s*`([a-z0-9_.]+)`\s*\|\s*`([a-z0-9_.]+|root)`\s*\|\s*"
    r"`((?:src|tools)/[\w./]+)`\s*\|")

ARCH_PATH = "docs/ARCHITECTURE.md"
# Inventory rows: | `Dispatcher::mu_` | `src/server/dispatcher.h` | …
# (file-scope mutexes like g_log_mu have no Owner:: prefix).
MUTEX_ROW_RE = re.compile(
    r"^\|\s*`(?:\w+::)?(\w+)`\s*\|\s*`(src/[\w./]+)`\s*\|")
# `Mutex name_;` / `mutable Mutex mu_ CAFE_…;` / `Mutex g_log_mu;`
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:cafe::)?Mutex\s+(\w+)")

PERF_PATH = "docs/PERFORMANCE.md"
BENCH_CMAKE_PATH = "bench/CMakeLists.txt"
# `__attribute__((target("avx2"))) inline __m256i ShiftLanesUp(…` — the
# kernel name is the identifier before the first paren after the
# attribute (clang-format keeps them on one logical line).
TARGET_ATTR_RE = re.compile(
    r'__attribute__\(\(target\("[^"]+"\)\)\)\s*(?:inline\s+)?\w+\s+(\w+)\s*\(')
# Dispatch-table rows: | `PackedScanAvx2` | `src/seqstore/…` | …
PERF_KERNEL_ROW_RE = re.compile(r"^\|\s*`(\w+)`\s*\|\s*`(src/[\w./]+)`\s*\|")
BENCH_REG_RE = re.compile(r"cafe_add_(?:bench|micro)\((\w+)\)")

FORMATS_PATH = "docs/FORMATS.md"
# `constexpr std::string_view kMagic("CAFCOL2\0", 8);`
MAGIC_LITERAL_RE = re.compile(r'"(\w{7})\\0"')
# ## Inverted index — magic `CAFIDX1\0` / `CAFIDX2\0`
FORMAT_HEADING_RE = re.compile(r"^#+ .* — magic (.+)$")
FORMAT_MAGIC_RE = re.compile(r"`(\w{7})\\0`")
DOC_BENCH_RE = re.compile(r"`(bench_\w+)`")

# Backticked `cafe_*` words that are repo binaries / libraries / CMake
# helpers, not Prometheus series claims.
NON_METRIC_NAMES = frozenset({
    "cafe_cli", "cafe_serve", "cafe_loadgen", "cafe_align",
    "cafe_alphabet", "cafe_coding", "cafe_collection", "cafe_eval",
    "cafe_index", "cafe_obs", "cafe_search", "cafe_seqstore",
    "cafe_server", "cafe_sim", "cafe_util", "cafe_add_test",
})


def prometheus_name(metric, kind):
    """Mirrors MetricsRegistry::SnapshotPrometheus's name mapping."""
    base = "cafe_" + re.sub(r"[^a-zA-Z0-9_:]", "_", metric)
    return base + "_total" if kind == "Counter" else base


def code_metric_names(root):
    """{dotted name: (kind, first file using it)}"""
    names = {}
    for top in ("src", "tools"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in sorted(files):
                if not name.endswith((".h", ".cc")):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    for kind, metric in GET_RE.findall(f.read()):
                        names.setdefault(
                            metric, (kind, os.path.relpath(path, root)))
    return names


def trace_metric_names(root):
    """{search.<field>: (kind, TRACE_PATH)} for the metrics the dispatcher
    records from each request's SearchTrace."""
    with open(os.path.join(root, TRACE_PATH), encoding="utf-8") as f:
        text = f.read()
    body = text[text.index("struct SearchTrace {"):]
    body = body[:body.index("\n};")]
    names = {}
    for ctype, field in TRACE_FIELD_RE.findall(body):
        if ctype == "uint64_t":
            names["search." + field] = ("Counter", TRACE_PATH)
        elif field.endswith("_micros"):
            names["search." + field] = ("Histogram", TRACE_PATH)
    return names


def doc_metric_names(doc_text):
    names = set()
    for line in doc_text.split("\n"):
        m = DOC_ROW_RE.match(line)
        if m:
            names.add(m.group(1))
    return names


def code_span_names(root):
    """{span name: set of files recording it} under src/ and tools/,
    excluding src/obs/span.h (the type's own doc comments)."""
    names = {}
    for top in ("src", "tools"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in sorted(files):
                if not name.endswith((".h", ".cc")):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                if rel == "src/obs/span.h":
                    continue
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                for span in SPAN_CALL_RE.findall(text):
                    names.setdefault(span, set()).add(rel)
                for span in SPAN_RAII_RE.findall(text):
                    names.setdefault(span, set()).add(rel)
    return names


def check_span_catalogue(root, doc_text, problems):
    in_code = code_span_names(root)
    rows = {}
    for line in doc_text.split("\n"):
        m = SPAN_ROW_RE.match(line)
        if m:
            rows[m.group(1)] = m.group(3)
    for span in sorted(set(in_code) - set(rows)):
        where = ", ".join(sorted(in_code[span]))
        problems.append(
            f"{where}: span {span!r} has no catalogue row in {DOC_PATH}")
    for span, rel in sorted(rows.items()):
        if span not in in_code:
            problems.append(
                f"{DOC_PATH}: span catalogue documents {span!r} but no "
                f"recording site in src/ or tools/ uses it")
        elif rel not in in_code[span]:
            problems.append(
                f"{DOC_PATH}: span catalogue claims {span!r} is recorded "
                f"by {rel!r}, but the recording sites are "
                f"{sorted(in_code[span])}")
    return len(in_code), len(rows)


def code_mutex_decls(root):
    """{(relpath, mutex name)} for every Mutex declared under src/,
    excluding util/mutex.h (the wrapper's own internals)."""
    decls = set()
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if rel == "src/util/mutex.h":
                continue
            with open(path, encoding="utf-8") as f:
                for line in f:
                    m = MUTEX_DECL_RE.match(line)
                    if m:
                        decls.add((rel, m.group(1)))
    return decls


def doc_mutex_rows(arch_text):
    rows = set()
    for line in arch_text.split("\n"):
        m = MUTEX_ROW_RE.match(line)
        if m:
            rows.add((m.group(2), m.group(1)))
    return rows


def check_mutex_inventory(root, problems):
    arch_path = os.path.join(root, ARCH_PATH)
    with open(arch_path, encoding="utf-8") as f:
        arch_text = f.read()
    in_code = code_mutex_decls(root)
    in_doc = doc_mutex_rows(arch_text)
    for rel, name in sorted(in_code - in_doc):
        problems.append(
            f"{rel}: Mutex {name!r} has no inventory row in {ARCH_PATH} "
            f"(\"Concurrency invariants\")")
    for rel, name in sorted(in_doc - in_code):
        problems.append(
            f"{ARCH_PATH}: inventory row claims Mutex {name!r} in "
            f"{rel!r}, but that file declares no such mutex")
    return len(in_code), len(in_doc)


def code_kernel_decls(root):
    """{(relpath, function name)} for every target-attributed function
    under src/ — the runtime-dispatched SIMD kernels."""
    decls = set()
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for fname in TARGET_ATTR_RE.findall(f.read()):
                    decls.add((rel, fname))
    return decls


def check_simd_inventory(root, perf_text, problems):
    in_code = code_kernel_decls(root)
    in_doc = set()
    for line in perf_text.split("\n"):
        m = PERF_KERNEL_ROW_RE.match(line)
        if m:
            in_doc.add((m.group(2), m.group(1)))
    for rel, name in sorted(in_code - in_doc):
        problems.append(
            f"{rel}: SIMD kernel {name!r} has no dispatch-table row in "
            f"{PERF_PATH}")
    for rel, name in sorted(in_doc - in_code):
        problems.append(
            f"{PERF_PATH}: dispatch-table row claims kernel {name!r} in "
            f"{rel!r}, but that file defines no such target-attributed "
            f"function")
    return len(in_code), len(in_doc)


def check_bench_inventory(root, perf_text, problems):
    with open(os.path.join(root, BENCH_CMAKE_PATH), encoding="utf-8") as f:
        registered = set(BENCH_REG_RE.findall(f.read()))
    documented = set(DOC_BENCH_RE.findall(perf_text))
    for name in sorted(registered - documented):
        problems.append(
            f"{BENCH_CMAKE_PATH}: bench target {name!r} is not documented "
            f"in {PERF_PATH}")
    for name in sorted(documented - registered):
        problems.append(
            f"{PERF_PATH}: mentions bench {name!r} but "
            f"{BENCH_CMAKE_PATH} registers no such target")
    return len(registered)


def check_format_inventory(root, problems):
    in_code = {}
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for magic in MAGIC_LITERAL_RE.findall(f.read()):
                    in_code.setdefault(magic, rel)
    in_doc = set()
    with open(os.path.join(root, FORMATS_PATH), encoding="utf-8") as f:
        for line in f:
            m = FORMAT_HEADING_RE.match(line.rstrip("\n"))
            if m:
                in_doc.update(FORMAT_MAGIC_RE.findall(m.group(1)))
    for magic in sorted(set(in_code) - in_doc):
        problems.append(
            f"{in_code[magic]}: magic {magic!r} has no `— magic` heading "
            f"in {FORMATS_PATH}")
    for magic in sorted(in_doc - set(in_code)):
        problems.append(
            f"{FORMATS_PATH}: a heading documents magic {magic!r}, but no "
            f"literal under src/ is that magic")
    return len(in_code), len(in_doc)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    doc_path = os.path.join(root, DOC_PATH)
    with open(doc_path, encoding="utf-8") as f:
        doc_text = f.read()

    in_code = code_metric_names(root)
    in_code.update(trace_metric_names(root))
    in_doc = doc_metric_names(doc_text)
    problems = []

    exported = set()
    for m, (kind, _) in in_code.items():
        prom = prometheus_name(m, kind)
        exported.add(prom)
        if kind == "Histogram":
            # The series a Prometheus histogram actually exposes.
            exported.update(
                {prom + "_bucket", prom + "_sum", prom + "_count"})
    for metric in sorted(in_code):
        kind, where = in_code[metric]
        if f"`{metric}`" not in doc_text:
            problems.append(
                f"{where}: metric {metric!r} is not documented "
                f"in {DOC_PATH}")
        prom = prometheus_name(metric, kind)
        if f"`{prom}`" not in doc_text:
            problems.append(
                f"{where}: Prometheus name {prom!r} (for {metric!r}) is "
                f"not documented in {DOC_PATH}")
    for metric in sorted(in_doc):
        if metric not in in_code:
            problems.append(
                f"{DOC_PATH}: documents {metric!r} but no "
                f"GetCounter/GetHistogram literal in src/ or tools/ uses "
                f"it, and no SearchTrace field in {TRACE_PATH} names it")
    for prom in sorted(set(DOC_PROM_RE.findall(doc_text))):
        if prom not in exported and prom not in NON_METRIC_NAMES:
            problems.append(
                f"{DOC_PATH}: documents Prometheus name {prom!r} but "
                f"/metrics exports no such series")

    span_code, span_doc = check_span_catalogue(root, doc_text, problems)
    mutex_code, mutex_doc = check_mutex_inventory(root, problems)

    with open(os.path.join(root, PERF_PATH), encoding="utf-8") as f:
        perf_text = f.read()
    kernel_code, kernel_doc = check_simd_inventory(root, perf_text, problems)
    bench_count = check_bench_inventory(root, perf_text, problems)
    format_code, format_doc = check_format_inventory(root, problems)

    for p in problems:
        print(p)
    print(f"doccheck: {len(in_code)} metrics in code, {len(in_doc)} in "
          f"catalogue, {span_code} spans in code, {span_doc} in span "
          f"catalogue, {mutex_code} mutexes in code, {mutex_doc} in "
          f"inventory, {kernel_code} SIMD kernels in code, {kernel_doc} in "
          f"dispatch table, {bench_count} bench targets, {format_code} "
          f"magics in code, {format_doc} in format headings, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
