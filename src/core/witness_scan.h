#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/options.h"
#include "tkg/graph.h"

namespace anot {

/// Scan cap on each backward walk over a fact's recent history: the
/// scorer's chain window, triadic and out-edge scans, and triadic
/// candidate generation (keeps scoring O(f_max), §4.6).
inline constexpr size_t kMaxInstantiationScan = 64;

/// \brief Walks the ids [begin, end) of a time-sorted index sequence
/// newest first, reading at most kMaxInstantiationScan of them.
///
/// Every id read spends one slot of the cap, whether it is visited or
/// skipped. An id equal to `exclude` is skipped (exclusion is by id, so a
/// distinct fact equal in value is still visited), and so is a fact whose
/// `anchor` time lies after `not_after`. Every other fact is handed to
/// `visit(id, fact, anchor_time)`, which returns false to stop the scan.
template <class Visit>
void ScanRecentFacts(const TemporalKnowledgeGraph& graph,
                     std::vector<FactId>::const_iterator begin,
                     std::vector<FactId>::const_iterator end,
                     TimeAnchor anchor, Timestamp not_after, FactId exclude,
                     Visit&& visit) {
  for (auto n = std::min<ptrdiff_t>(end - begin, kMaxInstantiationScan);
       n > 0; --n) {
    const FactId id = *--end;
    if (id == exclude) continue;
    const Fact& fact = graph.fact(id);
    const Timestamp time = AnchorTime(fact, anchor);
    if (time > not_after) continue;
    if (!visit(id, fact, time)) return;
  }
}

/// The same scan over a whole index sequence; a null sequence visits
/// nothing.
template <class Visit>
void ScanRecentFacts(const TemporalKnowledgeGraph& graph,
                     const std::vector<FactId>* ids, TimeAnchor anchor,
                     Timestamp not_after, FactId exclude, Visit&& visit) {
  if (ids == nullptr) return;
  ScanRecentFacts(graph, ids->begin(), ids->end(), anchor, not_after, exclude,
                  std::forward<Visit>(visit));
}

}  // namespace anot
