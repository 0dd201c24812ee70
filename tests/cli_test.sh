#!/bin/sh
# End-to-end exercise of cafe_cli: generate -> build -> info -> search
# (including failure paths). Run by ctest with the cli binary as $1.
set -eu

CLI="${1:?usage: cli_test.sh <path-to-cafe_cli>}"
DIR="$(mktemp -d "${TMPDIR:-/tmp}/cafe_cli_test.XXXXXX")"
trap 'rm -rf "$DIR"' EXIT

"$CLI" generate --bases 100000 --out "$DIR/db.fa" --seed 5 > "$DIR/log" 2>&1
grep -q "wrote" "$DIR/log"

"$CLI" build --fasta "$DIR/db.fa" --collection "$DIR/db.col" \
    --index "$DIR/db.idx" --interval 8 > "$DIR/log" 2>&1
grep -q "postings" "$DIR/log"

"$CLI" info --collection "$DIR/db.col" --index "$DIR/db.idx" \
    > "$DIR/log" 2>&1
grep -q "bits/base" "$DIR/log"
grep -q "interval length" "$DIR/log"

"$CLI" terms --index "$DIR/db.idx" --top 5 > "$DIR/log" 2>&1
grep -q "interval" "$DIR/log"

# The build has one path: its former shards and threads flags are unknown.
for flag in shards threads; do
  if "$CLI" build --fasta "$DIR/db.fa" --collection "$DIR/db2.col" \
      --index "$DIR/db2.idx" --interval 8 "--$flag" 4 > "$DIR/log" 2>&1; then
    echo "expected failure on build --$flag" >&2
    exit 1
  fi
  grep -q "$flag" "$DIR/log"
done

# Excise a query from the generated FASTA (second line = first sequence).
QUERY="$(sed -n '2p' "$DIR/db.fa" | cut -c1-60)"
"$CLI" search --collection "$DIR/db.col" --index "$DIR/db.idx" \
    --query "$QUERY" --top 3 > "$DIR/log" 2>&1
grep -q "SYN0" "$DIR/log"

# Mapped index + both strands + evalues path.
"$CLI" search --collection "$DIR/db.col" --index "$DIR/db.idx" \
    --query "$QUERY" --top 3 --index-mode=mmap --both-strands --evalues \
    > "$DIR/log" 2>&1
grep -q "evalue" "$DIR/log"

# Query file path with traceback.
printf '>probe\n%s\n' "$QUERY" > "$DIR/q.fa"
"$CLI" search --collection "$DIR/db.col" --index "$DIR/db.idx" \
    --query-file "$DIR/q.fa" --top 1 --traceback > "$DIR/log" 2>&1
grep -q "identity 100%" "$DIR/log"

# A hit whose traceback is over the cell limit keeps its row and gets a
# one-line note in place of its alignment. Hit-count ranking carries no
# diagonal, so a 7,000-base query traces back over the whole 10,000-base
# sequence it was cut from (7e7 cells, over the 2^26 limit); the
# 1,000-base piece of it still gets its alignment.
awk 'BEGIN { srand(7); s = ""
  for (i = 0; i < 10000; i++) s = s substr("ACGT", int(rand() * 4) + 1, 1)
  print ">long"; print s; print ">short"; print substr(s, 2001, 1000) }' \
    > "$DIR/long.fa"
printf '>q7000\n%s\n' "$(sed -n '2p' "$DIR/long.fa" | cut -c1-7000)" \
    > "$DIR/q7000.fa"
"$CLI" build --fasta "$DIR/long.fa" --collection "$DIR/long.col" \
    --index "$DIR/long.idx" > "$DIR/log" 2>&1
"$CLI" search --collection "$DIR/long.col" --index "$DIR/long.idx" \
    --query-file "$DIR/q7000.fa" --mode hitcount --traceback \
    > "$DIR/log" 2>&1
grep -Eq "^ *1 +long +" "$DIR/log"
grep -Eq "^ *2 +short +" "$DIR/log"
test "$(grep -c "no alignment" "$DIR/log")" -eq 1
grep -q "^long: no alignment, the traceback is over the limit of 67108864 cells$" \
    "$DIR/log"
grep -q "identity 100%" "$DIR/log"

# Observability: --stats appends the trace funnel; --stats=json makes
# stdout a single JSON document (validated when python3 is available).
"$CLI" search --collection "$DIR/db.col" --index "$DIR/db.idx" \
    --query "$QUERY" --top 3 --stats > "$DIR/log" 2>&1
grep -q "funnel:" "$DIR/log"
grep -q "candidates ranked" "$DIR/log"

"$CLI" search --collection "$DIR/db.col" --index "$DIR/db.idx" \
    --query "$QUERY" --top 3 --index-mode=mmap --stats=json > "$DIR/stats.json"
grep -q '"trace_total"' "$DIR/stats.json"
grep -q '"postings_decoded"' "$DIR/stats.json"
grep -q '"timings_us"' "$DIR/stats.json"
grep -q 'mmap_index.maps' "$DIR/stats.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$DIR/stats.json" > /dev/null
fi

"$CLI" build --fasta "$DIR/db.fa" --collection "$DIR/db3.col" \
    --index "$DIR/db3.idx" --stats=json > "$DIR/build.json"
grep -q 'index_build.builds' "$DIR/build.json"
grep -q '"p50"' "$DIR/build.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$DIR/build.json" > /dev/null
fi

# Chaining middle stage: --chain=filter must keep the self-hit and
# surface the chain funnel line under --stats.
"$CLI" search --collection "$DIR/db.col" --index "$DIR/db.idx" \
    --query "$QUERY" --top 3 --chain filter --stats > "$DIR/log" 2>&1
grep -q "SYN0" "$DIR/log"
grep -q "chain:" "$DIR/log"

# The spaced-seed build path: weight-8 pattern, searched end to end.
"$CLI" build --fasta "$DIR/db.fa" --collection "$DIR/db4.col" \
    --index "$DIR/db4.idx" --seed-pattern 11011011011 > "$DIR/log" 2>&1
grep -q "postings" "$DIR/log"
"$CLI" search --collection "$DIR/db4.col" --index "$DIR/db4.idx" \
    --query "$QUERY" --top 3 --chain filter > "$DIR/log" 2>&1
grep -q "SYN0" "$DIR/log"

# batch = search over a query file; rejects inline --query.
"$CLI" batch --collection "$DIR/db.col" --index "$DIR/db.idx" \
    --query-file "$DIR/q.fa" --top 1 > "$DIR/log" 2>&1
grep -q "probe" "$DIR/log"

# batch over the zero-copy mmap read path answers identically (the
# per-query timing line is wall-clock, so it is excluded from the
# comparison).
"$CLI" batch --collection "$DIR/db.col" --index "$DIR/db.idx" \
    --query-file "$DIR/q.fa" --top 1 --index-mode=mmap \
    > "$DIR/log_mmap" 2>&1
grep -q "probe" "$DIR/log_mmap"
grep -v "hits in" "$DIR/log" > "$DIR/hits_memory"
grep -v "hits in" "$DIR/log_mmap" > "$DIR/hits_mmap"
cmp "$DIR/hits_memory" "$DIR/hits_mmap"
if "$CLI" batch --collection "$DIR/db.col" --index "$DIR/db.idx" \
    --query ACGTACGTACGT > "$DIR/log" 2>&1; then
  echo "expected failure: batch without --query-file" >&2
  exit 1
fi
grep -q "query-file" "$DIR/log"

# An index opened with a collection it was not built over is refused
# before any query runs, in both pairings.
"$CLI" generate --bases 50000 --out "$DIR/other.fa" --seed 6 > "$DIR/log" 2>&1
"$CLI" build --fasta "$DIR/other.fa" --collection "$DIR/other.col" \
    --index "$DIR/other.idx" > "$DIR/log" 2>&1
if "$CLI" search --collection "$DIR/db.col" --index "$DIR/other.idx" \
    --query "$QUERY" > "$DIR/log" 2>&1; then
  echo "expected failure on a mismatched collection and index" >&2
  exit 1
fi
grep -Eq "index covers|in the index" "$DIR/log"
if "$CLI" batch --collection "$DIR/other.col" --index "$DIR/db.idx" \
    --query-file "$DIR/q.fa" > "$DIR/log" 2>&1; then
  echo "expected failure on a mismatched collection and index" >&2
  exit 1
fi
grep -Eq "index covers|in the index" "$DIR/log"

# Failure paths must exit non-zero with a diagnostic.
if "$CLI" search --collection "$DIR/db.col" --index "$DIR/db.idx" \
    > "$DIR/log" 2>&1; then
  echo "expected failure on missing query" >&2
  exit 1
fi
grep -q "query" "$DIR/log"

if "$CLI" build --fasta /nonexistent.fa --collection "$DIR/x" \
    --index "$DIR/y" > "$DIR/log" 2>&1; then
  echo "expected failure on missing fasta" >&2
  exit 1
fi

if "$CLI" search --collection "$DIR/db.col" --index "$DIR/db.idx" \
    --query ACGTACGTACGT --tpo 3 > "$DIR/log" 2>&1; then
  echo "expected failure on unknown flag" >&2
  exit 1
fi
grep -q "tpo" "$DIR/log"

echo "cli_test OK"
