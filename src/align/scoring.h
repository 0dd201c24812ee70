// Scoring schemes for nucleotide local alignment.
//
// Default parameters follow the classic nucleotide practice (match +5,
// mismatch -4, affine gaps): the regime in which the paper's fine search
// ranks candidate sequences. Wildcard-aware scoring treats IUPAC-
// compatible letter pairs (e.g. N vs anything, R vs A) as neutral rather
// than as mismatches, so lossless wildcard storage does not poison
// alignments.

#ifndef CAFE_ALIGN_SCORING_H_
#define CAFE_ALIGN_SCORING_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace cafe {

struct ScoringScheme {
  int match = 5;
  int mismatch = -4;
  /// Penalty charged when a gap is opened (includes the first gapped base).
  int gap_open = -10;
  /// Penalty per additional gapped base.
  int gap_extend = -2;
  /// Score for non-identical but IUPAC-compatible pairs (only consulted
  /// when iupac_aware is set).
  int wildcard_score = 0;
  bool iupac_aware = true;

  /// Pairwise substitution score.
  int Score(char a, char b) const;

  Status Validate() const;

  bool operator==(const ScoringScheme&) const = default;
};

}  // namespace cafe

#endif  // CAFE_ALIGN_SCORING_H_
