#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/anot.h"

namespace anot {

/// \brief Strategies for adapting AnoT to time-duration TKGs (§4.7 and
/// Figure 10a's comparison baselines).
enum class DurationStrategy {
  kFourGraphs,  // paper: ST-ST, ED-ED, ST-ED, ED-ST; average the scores
  kStartOnly,   // only t_start (a single ST-ST graph)
  kEndOnly,     // only t_end (a single ED-ED graph)
  kAverage,     // collapse each fact to its midpoint timestamp
};

// anot-lint: lifetime-ok returns a string literal (immortal storage)
const char* DurationStrategyName(DurationStrategy strategy);

/// \brief AnoT generalized to facts with validity durations
/// (s, r, o, t_start, t_end), e.g. the Wikidata benchmark.
///
/// With kFourGraphs, four rule graphs are built over the same TKG, each
/// associating facts through a different (head anchor, tail anchor)
/// combination; a fact's final score is the average of the four scores.
/// Static scores are anchor-independent, so conceptual-error detection is
/// unchanged (§4.7 "Conceptual errors").
class DurationAnoT {
 public:
  static DurationAnoT Build(const TemporalKnowledgeGraph& offline,
                            const AnoTOptions& options,
                            DurationStrategy strategy =
                                DurationStrategy::kFourGraphs);

  /// Scores across the strategy's views: every double field is the views'
  /// mean, `out_violations` their sum, `temporal_evaluated` and
  /// `associated` true when any view's is.
  Scores Score(const Fact& fact) const;

  /// Feeds valid knowledge to every view's updater.
  void IngestValid(const Fact& fact);

  size_t num_views() const { return views_.size(); }
  const AnoT& view(size_t i) const ANOT_LIFETIME_BOUND {
    return *views_[i];
  }
  /// "ST-ST", "ED-ED", "ST-ED", "ED-ST" (or the single view's name).
  const std::string& view_name(size_t i) const ANOT_LIFETIME_BOUND {
    return view_names_[i];
  }

  DurationStrategy strategy() const { return strategy_; }

 private:
  /// Remaps a fact for the kAverage strategy (midpoint collapse).
  Fact Remap(const Fact& fact) const;

  DurationStrategy strategy_ = DurationStrategy::kFourGraphs;
  std::vector<std::unique_ptr<AnoT>> views_;
  std::vector<std::string> view_names_;
};

}  // namespace anot
