#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <string_view>

namespace cafe::obs {

const std::array<SearchTrace::Field<uint64_t>, 16> SearchTrace::kCounters = {{
    {"queries", &SearchTrace::queries},
    {"intervals_extracted", &SearchTrace::intervals_extracted},
    {"terms_distinct", &SearchTrace::terms_distinct},
    {"terms_unindexed", &SearchTrace::terms_unindexed},
    {"postings_lists_touched", &SearchTrace::postings_lists_touched},
    {"postings_decoded", &SearchTrace::postings_decoded},
    {"candidates_ranked", &SearchTrace::candidates_ranked},
    {"candidates_kept", &SearchTrace::candidates_kept},
    {"candidates_discarded", &SearchTrace::candidates_discarded},
    {"chain_candidates_in", &SearchTrace::chain_candidates_in},
    {"chain_anchors", &SearchTrace::chain_anchors},
    {"chain_candidates_kept", &SearchTrace::chain_candidates_kept},
    {"chain_candidates_dropped", &SearchTrace::chain_candidates_dropped},
    {"candidates_aligned", &SearchTrace::candidates_aligned},
    {"cells_computed", &SearchTrace::cells_computed},
    {"hits_reported", &SearchTrace::hits_reported},
}};

const std::array<SearchTrace::Field<double>, 5> SearchTrace::kTimings = {{
    {"coarse_micros", &SearchTrace::coarse_micros},
    {"chain_micros", &SearchTrace::chain_micros},
    {"fine_micros", &SearchTrace::fine_micros},
    {"post_micros", &SearchTrace::post_micros},
    {"total_micros", &SearchTrace::total_micros},
}};

// A field added to the struct but not to the tables fails here.
static_assert(sizeof(SearchTrace) ==
              sizeof(uint64_t) * SearchTrace::kCounters.size() +
                  sizeof(double) * SearchTrace::kTimings.size());

void SearchTrace::Merge(const SearchTrace& other) {
  for (const auto& f : kCounters) this->*f.member += other.*f.member;
  for (const auto& f : kTimings) this->*f.member += other.*f.member;
}

std::string SearchTrace::CountersJson() const {
  std::string out = "{";
  for (const auto& f : kCounters) {
    if (&f != &kCounters.front()) out += ',';
    out += '"';
    out += f.name;
    out += "\":";
    out += std::to_string(this->*f.member);
  }
  out += '}';
  return out;
}

std::string SearchTrace::ToJson() const {
  std::string out = "{\"counters\":" + CountersJson() + ",\"timings_us\":{";
  // %.1f of any double fits: at most 309 integer digits.
  char buf[384];
  for (const auto& f : kTimings) {
    std::string_view key = f.name;
    key.remove_suffix(sizeof("_micros") - 1);
    std::snprintf(buf, sizeof(buf), "%s\"%.*s\":%.1f",
                  &f == &kTimings.front() ? "" : ",",
                  static_cast<int>(key.size()), key.data(), this->*f.member);
    out += buf;
  }
  out += "}}";
  return out;
}

std::string SearchTrace::ToText() const {
  char buf[1280];
  std::snprintf(
      buf, sizeof(buf),
      "  funnel: %" PRIu64 " intervals -> %" PRIu64
      " distinct terms (%" PRIu64 " unindexed) -> %" PRIu64
      " lists, %" PRIu64 " postings decoded -> %" PRIu64
      " candidates ranked (%" PRIu64 " discarded) -> %" PRIu64
      " aligned -> %" PRIu64 " hits\n"
      "  chain:  %" PRIu64 " candidates in -> %" PRIu64
      " anchors -> %" PRIu64 " kept (%" PRIu64 " dropped)\n"
      "  work:   %" PRIu64 " DP cells over %" PRIu64 " strand pass(es)\n"
      "  time:   coarse %.1f us, chain %.1f us, fine %.1f us, "
      "post %.1f us, total %.1f us\n",
      intervals_extracted, terms_distinct, terms_unindexed,
      postings_lists_touched, postings_decoded, candidates_ranked,
      candidates_discarded, candidates_aligned, hits_reported,
      chain_candidates_in, chain_anchors, chain_candidates_kept,
      chain_candidates_dropped, cells_computed, queries, coarse_micros,
      chain_micros, fine_micros, post_micros, total_micros);
  return buf;
}

}  // namespace cafe::obs
