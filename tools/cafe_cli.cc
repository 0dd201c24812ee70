// cafe_cli — command-line front end to the library.
//
//   cafe_cli generate --bases 1000000 --out db.fa [--seed N]
//       [--wildcards RATE]
//   cafe_cli build --fasta db.fa --collection db.col --index db.idx
//       [--interval 8] [--stride 1] [--granularity positional|document]
//       [--stop FRACTION]
//       [--seed-pattern 1101011]   (spaced seed; '1' count = interval)
//   cafe_cli info --collection db.col [--index db.idx]
//   cafe_cli search --collection db.col --index db.idx
//       (--query ACGT... | --query-file q.fa)
//       [--top 10] [--candidates 100] [--band 48] [--mode diagonal|hitcount]
//       [--both-strands] [--evalues] [--traceback]
//       [--chain off|filter] [--min-chain N] [--index-mode memory|mmap]
//       [--threads N]   (default: one per hardware thread; 1 = sequential)
//       [--stats[=json]] [--trace-out FILE]
//   cafe_cli batch ...   (search over --query-file; same flags)
//
// --traceback prints each hit's alignment, or a one-line note for a hit
// whose traceback is over Aligner::kMaxTracebackCells.
//
// --stats prints the observability layer (src/obs/): each query's
// search trace plus the process metrics registry, as text after the normal
// output or, with --stats=json, as a single JSON document on stdout
// (schema in docs/OBSERVABILITY.md). --trace-out records one span
// timeline covering the whole run (index open + every query) and writes
// it as Chrome trace-event JSON — load the file in Perfetto or
// chrome://tracing.
//
// Exit status 0 on success, 1 on any error (message on stderr).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>

#include "align/smith_waterman.h"
#include "align/statistics.h"
#include "alphabet/nucleotide.h"
#include "collection/collection.h"
#include "collection/genbank.h"
#include "eval/table.h"
#include "index/index_reader.h"
#include "index/interval.h"
#include "index/index_stats.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "search/partitioned.h"
#include "sim/generator.h"
#include "util/flags.h"
#include "util/stringutil.h"
#include "util/timer.h"
#include "util/version.h"

namespace cafe {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: cafe_cli <generate|build|info|terms|search|batch> [flags]\n"
      "  generate --bases N --out FILE [--seed N] [--wildcards RATE]\n"
      "  build    (--fasta FILE | --genbank FILE) --collection FILE\n"
      "           --index FILE\n"
      "           [--interval N] [--stride N] [--granularity g] [--stop F]\n"
      "           [--seed-pattern P]  (spaced seed; '1' count = interval)\n"
      "           [--stats[=json]]\n"
      "  info     --collection FILE [--index FILE]\n"
      "  terms    --index FILE [--top N]\n"
      "  search   --collection FILE --index FILE\n"
      "           (--query SEQ | --query-file FILE) [--top N]\n"
      "           [--candidates N] [--band N] [--mode diagonal|hitcount]\n"
      "           [--both-strands] [--evalues]\n"
      "           [--traceback]  (a hit over 2^26 traceback cells: a note)\n"
      "           [--chain off|filter] [--min-chain N]\n"
      "           [--index-mode memory|mmap]\n"
      "           [--threads N]  (0 = one per hardware thread)\n"
      "           [--stats[=json]]  (per-query traces + metrics)\n"
      "           [--trace-out FILE]  (span timeline, Chrome trace JSON)\n"
      "  batch    search over a --query-file (same flags as search)\n"
      "  --version  print the build version and exit\n");
  return 1;
}

// --stats parses to "" (off), "text" (bare --stats) or "json".
Result<std::string> ParseStatsMode(FlagParser& flags) {
  std::string stats = flags.GetString("stats", "");
  if (stats.empty()) return std::string();
  if (stats == "true" || stats == "text") return std::string("text");
  if (stats == "json") return std::string("json");
  return Status::InvalidArgument("--stats takes no value, 'text' or 'json'");
}

Status CmdGenerate(FlagParser& flags) {
  sim::CollectionOptions options;
  options.target_bases =
      static_cast<uint64_t>(flags.GetInt("bases", 1000000));
  options.wildcard_rate = flags.GetDouble("wildcards", 0.0002);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  std::string out = flags.GetString("out", "");
  CAFE_RETURN_IF_ERROR(flags.Finish());
  if (out.empty()) {
    return Status::InvalidArgument("--out is required");
  }

  sim::CollectionGenerator gen(options);
  Result<SequenceCollection> col = gen.Generate();
  if (!col.ok()) return col.status();

  std::vector<FastaRecord> records;
  records.reserve(col->NumSequences());
  std::string seq;
  for (uint32_t i = 0; i < col->NumSequences(); ++i) {
    CAFE_RETURN_IF_ERROR(col->GetSequence(i, &seq));
    records.push_back({col->Name(i), col->Description(i), seq});
  }
  CAFE_RETURN_IF_ERROR(WriteFastaFile(out, records));
  std::printf("wrote %u sequences (%s bases) to %s\n", col->NumSequences(),
              WithCommas(col->TotalBases()).c_str(), out.c_str());
  return Status::OK();
}

Status CmdBuild(FlagParser& flags) {
  std::string fasta = flags.GetString("fasta", "");
  std::string genbank = flags.GetString("genbank", "");
  std::string col_path = flags.GetString("collection", "");
  std::string idx_path = flags.GetString("index", "");
  IndexOptions options;
  options.interval_length = static_cast<int>(flags.GetInt("interval", 8));
  options.stride = static_cast<uint32_t>(flags.GetInt("stride", 1));
  options.stop_doc_fraction = flags.GetDouble("stop", 1.0);
  options.spaced_seed = flags.GetString("seed-pattern", "");
  if (!options.spaced_seed.empty() && !flags.Has("interval")) {
    // The seed's weight IS the interval length; deriving it here means
    // --seed-pattern alone is a complete build spec. An explicit
    // --interval still has to agree (IndexOptions::Validate checks).
    options.interval_length = static_cast<int>(std::count(
        options.spaced_seed.begin(), options.spaced_seed.end(), '1'));
  }
  std::string gran = flags.GetString("granularity", "positional");
  Result<std::string> stats_mode = ParseStatsMode(flags);
  CAFE_RETURN_IF_ERROR(flags.Finish());
  if (!stats_mode.ok()) return stats_mode.status();
  if (fasta.empty() == genbank.empty() || col_path.empty() ||
      idx_path.empty()) {
    return Status::InvalidArgument(
        "exactly one of --fasta/--genbank plus --collection and --index "
        "are required");
  }
  if (gran == "document" || gran == "doc") {
    options.granularity = IndexGranularity::kDocument;
  } else if (gran != "positional" && gran != "pos") {
    return Status::InvalidArgument("unknown granularity: " + gran);
  }

  std::vector<FastaRecord> records;
  if (!fasta.empty()) {
    CAFE_RETURN_IF_ERROR(ReadFastaFile(fasta, &records));
  } else {
    CAFE_RETURN_IF_ERROR(ReadGenBankFile(genbank, &records));
  }
  Result<SequenceCollection> col = SequenceCollection::FromFasta(records);
  if (!col.ok()) return col.status();

  obs::MetricsRegistry registry;
  if (!stats_mode->empty()) options.metrics = &registry;
  WallTimer timer;
  // What the check and the output need of the built index. The index
  // itself is released before the check reopens the saved file, so two
  // term directories (384 MiB each when dense at --interval 12) are
  // never resident at once.
  uint64_t num_terms = 0, num_postings = 0, index_bytes = 0;
  uint32_t num_docs = 0;
  {
    Result<InvertedIndex> index = IndexBuilder::Build(*col, options);
    if (!index.ok()) return index.status();
    CAFE_RETURN_IF_ERROR(col->Save(col_path));
    CAFE_RETURN_IF_ERROR(index->Save(idx_path));
    num_terms = index->stats().num_terms;
    num_postings = index->stats().total_postings;
    num_docs = index->num_docs();
    index_bytes = index->SerializedBytes();
  }
  // Verify the bytes that landed on disk: reopen through the zero-copy
  // mmap path (one CRC sweep + directory parse, no blob copy) and
  // check the directory it sees against the index just built.
  {
    Result<InvertedIndex> verify =
        InvertedIndex::Load(idx_path, IndexMode::kMmap);
    if (!verify.ok()) return verify.status();
    if (verify->stats().num_terms != num_terms ||
        verify->stats().total_postings != num_postings ||
        verify->num_docs() != num_docs) {
      return Status::Corruption(
          "saved index disagrees with the built index: " + idx_path);
    }
  }
  if (*stats_mode == "json") {
    // JSON mode: stdout is exactly one document.
    std::printf("{\"command\":\"build\","
                "\"collection\":{\"sequences\":%u,\"bases\":%" PRIu64 "},"
                "\"index\":{\"terms\":%" PRIu64 ",\"postings\":%" PRIu64
                ",\"bytes\":%" PRIu64 "},"
                "\"metrics\":%s}\n",
                col->NumSequences(), col->TotalBases(), num_terms,
                num_postings, index_bytes, registry.SnapshotJson().c_str());
    return Status::OK();
  }
  std::printf(
      "collection: %u sequences, %s bases -> %s\n"
      "index: %s terms, %s postings, built in %.1fs -> %s (%s)\n",
      col->NumSequences(), WithCommas(col->TotalBases()).c_str(),
      col_path.c_str(), WithCommas(num_terms).c_str(),
      WithCommas(num_postings).c_str(), timer.Seconds(), idx_path.c_str(),
      HumanBytes(index_bytes).c_str());
  if (*stats_mode == "text") {
    std::printf("\nmetrics:\n%s", registry.SnapshotText().c_str());
  }
  return Status::OK();
}

Status CmdInfo(FlagParser& flags) {
  std::string col_path = flags.GetString("collection", "");
  std::string idx_path = flags.GetString("index", "");
  CAFE_RETURN_IF_ERROR(flags.Finish());
  if (col_path.empty()) {
    return Status::InvalidArgument("--collection is required");
  }
  Result<SequenceCollection> col = SequenceCollection::Load(col_path);
  if (!col.ok()) return col.status();
  std::printf("collection %s\n  sequences : %s\n  bases     : %s\n"
              "  storage   : %s (%.2f bits/base)\n",
              col_path.c_str(), WithCommas(col->NumSequences()).c_str(),
              WithCommas(col->TotalBases()).c_str(),
              HumanBytes(col->StorageBytes()).c_str(),
              8.0 * static_cast<double>(col->StorageBytes()) /
                  static_cast<double>(col->TotalBases()));
  if (!idx_path.empty()) {
    Result<InvertedIndex> index = InvertedIndex::Load(idx_path);
    if (!index.ok()) return index.status();
    std::printf("\nindex %s\n%s", idx_path.c_str(),
                FormatIndexStats(*index, col->TotalBases()).c_str());
  }
  return Status::OK();
}

// Lists the most frequent intervals — the candidates index stopping
// would discard, and a window into the collection's repeat structure.
Status CmdTerms(FlagParser& flags) {
  std::string idx_path = flags.GetString("index", "");
  uint32_t top = static_cast<uint32_t>(flags.GetInt("top", 20));
  CAFE_RETURN_IF_ERROR(flags.Finish());
  if (idx_path.empty()) {
    return Status::InvalidArgument("--index is required");
  }
  Result<InvertedIndex> index = InvertedIndex::Load(idx_path);
  if (!index.ok()) return index.status();

  struct TermRow {
    uint32_t term;
    uint32_t doc_count;
    uint32_t posting_count;
  };
  std::vector<TermRow> rows;
  index->directory().ForEachTerm([&](uint32_t term, const TermEntry& e) {
    rows.push_back({term, e.doc_count, e.posting_count});
  });
  std::sort(rows.begin(), rows.end(),
            [](const TermRow& a, const TermRow& b) {
              if (a.posting_count != b.posting_count) {
                return a.posting_count > b.posting_count;
              }
              return a.term < b.term;
            });
  if (rows.size() > top) rows.resize(top);

  int n = index->options().interval_length;
  eval::TablePrinter table({"interval", "postings", "sequences",
                            "% of sequences"});
  for (const TermRow& r : rows) {
    table.AddRow({DecodeInterval(r.term, n), WithCommas(r.posting_count),
                  WithCommas(r.doc_count),
                  FormatDouble(100.0 * r.doc_count / index->num_docs(), 1)});
  }
  table.Print();
  return Status::OK();
}

// Renders one hit as a JSON object (--stats=json output).
std::string HitJson(const SequenceCollection& col, const SearchHit& h,
                    bool evalues) {
  char buf[160];
  std::string out = "{\"sequence\":\"" + obs::JsonEscape(col.Name(h.seq_id)) +
                    "\"";
  std::snprintf(buf, sizeof(buf), ",\"score\":%d,\"coarse\":%.0f",
                h.score, h.coarse_score);
  out += buf;
  out += h.strand == Strand::kForward ? ",\"strand\":\"+\""
                                      : ",\"strand\":\"-\"";
  if (evalues) {
    std::snprintf(buf, sizeof(buf), ",\"bits\":%.2f,\"evalue\":%.3e",
                  h.bit_score, h.evalue);
    out += buf;
  }
  out += "}";
  return out;
}

// `batch_mode` is the `batch` subcommand: identical to search but the
// queries must come from a --query-file.
Status CmdSearch(FlagParser& flags, bool batch_mode) {
  std::string col_path = flags.GetString("collection", "");
  std::string idx_path = flags.GetString("index", "");
  std::string query = flags.GetString("query", "");
  std::string query_file = flags.GetString("query-file", "");
  SearchOptions options;
  options.max_results = static_cast<uint32_t>(flags.GetInt("top", 10));
  options.fine_candidates =
      static_cast<uint32_t>(flags.GetInt("candidates", 100));
  options.band = static_cast<int>(flags.GetInt("band", 48));
  options.search_both_strands = flags.GetBool("both-strands");
  options.traceback = flags.GetBool("traceback");
  std::string chain_flag = flags.GetString("chain", "off");
  options.min_chain_score =
      static_cast<uint32_t>(flags.GetInt("min-chain", 2));
  // 0 = one worker per hardware thread (the serving default); 1 forces
  // the sequential reference path.
  int64_t threads_flag = flags.GetInt("threads", 0);
  bool evalues = flags.GetBool("evalues");
  std::string index_mode_flag = flags.GetString("index-mode", "memory");
  std::string mode = flags.GetString("mode", "diagonal");
  std::string trace_out = flags.GetString("trace-out", "");
  Result<std::string> stats_flag = ParseStatsMode(flags);
  CAFE_RETURN_IF_ERROR(flags.Finish());
  if (!stats_flag.ok()) return stats_flag.status();
  const std::string& stats_mode = *stats_flag;
  if (threads_flag < 0) {
    return Status::InvalidArgument("--threads must be >= 0");
  }
  options.threads = static_cast<uint32_t>(threads_flag);
  if (col_path.empty() || idx_path.empty()) {
    return Status::InvalidArgument(
        "--collection and --index are required");
  }
  if (batch_mode && query_file.empty()) {
    return Status::InvalidArgument("batch requires --query-file");
  }
  if (query.empty() == query_file.empty()) {
    return Status::InvalidArgument(
        "exactly one of --query / --query-file is required");
  }
  if (mode == "hitcount" || mode == "hits") {
    options.coarse_mode = CoarseRankMode::kHitCount;
  } else if (mode != "diagonal" && mode != "diag") {
    return Status::InvalidArgument("unknown mode: " + mode);
  }
  Result<ChainMode> chain_mode = ParseChainMode(chain_flag);
  if (!chain_mode.ok()) return chain_mode.status();
  options.chain_mode = *chain_mode;

  Result<SequenceCollection> col = SequenceCollection::Load(col_path);
  if (!col.ok()) return col.status();

  Result<IndexMode> index_mode = ParseIndexMode(index_mode_flag);
  if (!index_mode.ok()) return index_mode.status();

  // --trace-out records the whole run (index open + every query) into
  // one timeline. Trace id 0 — this is a local run, not a wire request.
  std::unique_ptr<obs::SpanRecorder> spans;
  if (!trace_out.empty()) {
    spans = std::make_unique<obs::SpanRecorder>(0);
    options.spans = spans.get();
  }

  obs::MetricsRegistry registry;
  const uint32_t open_span =
      spans != nullptr ? spans->StartSpan("index.open") : 0;
  Result<IndexReader> reader = IndexReader::Open(idx_path, *index_mode);
  if (spans != nullptr) spans->EndSpan(open_span);
  if (!reader.ok()) return reader.status();
  const PostingSource* source = reader->source();
  CAFE_RETURN_IF_ERROR(CheckIndexMatchesCollection(*source, *col));
  // The per-query traces below are the search accounting; the metrics
  // object holds the index's open-time facts.
  if (!stats_mode.empty()) reader->AttachMetrics(&registry);

  std::vector<std::pair<std::string, std::string>> queries;  // (name, seq)
  if (!query.empty()) {
    std::string normalized = NormalizeSequence(query);
    if (!IsValidSequence(normalized)) {
      return Status::InvalidArgument("query contains non-IUPAC characters");
    }
    queries.emplace_back("query", normalized);
  } else {
    std::vector<FastaRecord> records;
    CAFE_RETURN_IF_ERROR(ReadFastaFile(query_file, &records));
    for (FastaRecord& rec : records) {
      queries.emplace_back(rec.id, std::move(rec.sequence));
    }
  }

  if (evalues) {
    Result<GumbelParams> params = CalibrateGumbel(
        options.scoring, 128, 1024, /*trials=*/50, /*seed=*/1);
    if (!params.ok()) return params.status();
    options.statistics = *params;
  }

  PartitionedSearch engine(&*col, source);
  std::vector<std::string> query_seqs;
  query_seqs.reserve(queries.size());
  for (const auto& [name, q] : queries) query_seqs.push_back(q);
  Result<std::vector<SearchResult>> batch =
      engine.BatchSearch(query_seqs, options);
  if (!batch.ok()) return batch.status();

  if (spans != nullptr) {
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr) {
      return Status::IOError("cannot write --trace-out file: " + trace_out);
    }
    const std::string trace_json = spans->ChromeTraceJson();
    std::fwrite(trace_json.data(), 1, trace_json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "trace: %zu spans -> %s\n", spans->size(),
                 trace_out.c_str());
  }

  if (stats_mode == "json") {
    // JSON mode: stdout is exactly one document. Schema in
    // docs/OBSERVABILITY.md.
    char buf[96];
    std::string out = "{\"command\":\"search\",";
    std::snprintf(buf, sizeof(buf),
                  "\"collection\":{\"sequences\":%u,\"bases\":%" PRIu64 "},",
                  col->NumSequences(), col->TotalBases());
    out += buf;
    out += "\"queries\":[";
    obs::SearchTrace total;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const auto& [name, q] = queries[qi];
      if (qi > 0) out += ",";
      out += "{\"name\":\"" + obs::JsonEscape(name) + "\"";
      std::snprintf(buf, sizeof(buf), ",\"bases\":%zu,", q.size());
      out += buf;
      out += "\"hits\":[";
      const std::vector<SearchHit>& hits = (*batch)[qi].hits;
      for (size_t i = 0; i < hits.size(); ++i) {
        if (i > 0) out += ",";
        out += HitJson(*col, hits[i], evalues);
      }
      out += "],\"trace\":" + (*batch)[qi].trace.ToJson() + "}";
      total.Merge((*batch)[qi].trace);
    }
    out += "],\"trace_total\":" + total.ToJson();
    out += ",\"metrics\":" + registry.SnapshotJson() + "}";
    std::printf("%s\n", out.c_str());
    return Status::OK();
  }

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto& [name, q] = queries[qi];
    const SearchResult* result = &(*batch)[qi];
    std::printf("query %s (%zu bases): %zu hits in %.1f ms "
                "(coarse %.1f, fine %.1f)\n",
                name.c_str(), q.size(), result->hits.size(),
                result->trace.total_micros * 1e-3,
                result->trace.coarse_micros * 1e-3,
                result->trace.fine_micros * 1e-3);
    std::vector<std::string> headers = {"#", "sequence", "score", "coarse",
                                        "strand"};
    if (evalues) {
      headers.push_back("bits");
      headers.push_back("evalue");
    }
    eval::TablePrinter table(headers);
    for (size_t i = 0; i < result->hits.size(); ++i) {
      const SearchHit& h = result->hits[i];
      std::vector<std::string> row = {
          std::to_string(i + 1), col->Name(h.seq_id),
          std::to_string(h.score), FormatDouble(h.coarse_score, 0),
          h.strand == Strand::kForward ? "+" : "-"};
      if (evalues) {
        row.push_back(FormatDouble(h.bit_score, 1));
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2e", h.evalue);
        row.push_back(buf);
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    if (options.traceback) {
      std::string target;
      for (const SearchHit& h : result->hits) {
        const char* strand =
            h.strand == Strand::kReverse ? " (minus strand)" : "";
        // A reported hit has a positive score, so an empty alignment
        // means its traceback was over the cell limit.
        if (h.alignment.ops.empty()) {
          std::printf("\n%s%s: no alignment, the traceback is over the "
                      "limit of %" PRIu64 " cells\n",
                      col->Name(h.seq_id).c_str(), strand,
                      Aligner::kMaxTracebackCells);
          continue;
        }
        CAFE_RETURN_IF_ERROR(col->GetSequence(h.seq_id, &target));
        std::string oriented =
            h.strand == Strand::kForward ? q : ReverseComplement(q);
        std::printf("\n%s%s\n", col->Name(h.seq_id).c_str(), strand);
        std::printf("%s", h.alignment.Format(oriented, target).c_str());
      }
    }
    if (stats_mode == "text") {
      std::printf("%s", result->trace.ToText().c_str());
    }
    std::printf("\n");
  }
  if (stats_mode == "text") {
    std::string text = registry.SnapshotText();
    if (!text.empty()) std::printf("metrics:\n%s", text.c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace cafe

int main(int argc, char** argv) {
  using namespace cafe;
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "--version" || cmd == "version") {
    std::printf("cafe_cli %s (git %s)\n", kVersionString, kGitRevision);
    return 0;
  }
  FlagParser flags(argc - 1, argv + 1);
  Status status;
  if (cmd == "generate") {
    status = CmdGenerate(flags);
  } else if (cmd == "build") {
    status = CmdBuild(flags);
  } else if (cmd == "info") {
    status = CmdInfo(flags);
  } else if (cmd == "terms") {
    status = CmdTerms(flags);
  } else if (cmd == "search") {
    status = CmdSearch(flags, /*batch_mode=*/false);
  } else if (cmd == "batch") {
    status = CmdSearch(flags, /*batch_mode=*/true);
  } else {
    return Usage();
  }
  return status.ok() ? 0 : Fail(status);
}
