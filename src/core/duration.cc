#include "core/duration.h"

#include <algorithm>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace anot {

const char* DurationStrategyName(DurationStrategy strategy) {
  switch (strategy) {
    case DurationStrategy::kFourGraphs: return "four-graphs";
    case DurationStrategy::kStartOnly: return "start-only";
    case DurationStrategy::kEndOnly: return "end-only";
    case DurationStrategy::kAverage: return "midpoint-average";
  }
  __builtin_unreachable();  // -Wswitch-enum keeps the switch total
}

namespace {

std::unique_ptr<TemporalKnowledgeGraph> MidpointGraph(
    const TemporalKnowledgeGraph& src) {
  auto out = std::make_unique<TemporalKnowledgeGraph>();
  for (size_t e = 0; e < src.entity_dict().size(); ++e) {
    out->entity_dict().GetOrAdd(src.entity_dict().Name(e));
  }
  for (size_t r = 0; r < src.relation_dict().size(); ++r) {
    out->relation_dict().GetOrAdd(src.relation_dict().Name(r));
  }
  for (const Fact& f : src.facts()) {
    const Timestamp mid = f.time + (f.end - f.time) / 2;
    out->AddFact(Fact(f.subject, f.relation, f.object, mid));
  }
  return out;
}

}  // namespace

Fact DurationAnoT::Remap(const Fact& fact) const {
  if (strategy_ != DurationStrategy::kAverage) return fact;
  const Timestamp mid = fact.time + (fact.end - fact.time) / 2;
  return Fact(fact.subject, fact.relation, fact.object, mid);
}

DurationAnoT DurationAnoT::Build(const TemporalKnowledgeGraph& offline,
                                 const AnoTOptions& options,
                                 DurationStrategy strategy) {
  DurationAnoT out;
  out.strategy_ = strategy;

  struct ViewSpec {
    // anot-own: points at a string-literal view name (static storage)
    const char* name;
    TimeAnchor head;
    TimeAnchor tail;
  };
  // push_back instead of initializer-list assignment: GCC 12's -Wnonnull
  // fires a false positive on the latter (memmove into a still-null
  // buffer it has proven is never reached), and the tree builds -Werror.
  std::vector<ViewSpec> specs;
  specs.reserve(4);
  switch (strategy) {
    case DurationStrategy::kFourGraphs:
      specs.push_back({"ST-ST", TimeAnchor::kStart, TimeAnchor::kStart});
      specs.push_back({"ED-ED", TimeAnchor::kEnd, TimeAnchor::kEnd});
      specs.push_back({"ST-ED", TimeAnchor::kStart, TimeAnchor::kEnd});
      specs.push_back({"ED-ST", TimeAnchor::kEnd, TimeAnchor::kStart});
      break;
    case DurationStrategy::kStartOnly:
      specs.push_back({"ST-ST", TimeAnchor::kStart, TimeAnchor::kStart});
      break;
    case DurationStrategy::kEndOnly:
      specs.push_back({"ED-ED", TimeAnchor::kEnd, TimeAnchor::kEnd});
      break;
    case DurationStrategy::kAverage:
      specs.push_back({"MID", TimeAnchor::kStart, TimeAnchor::kStart});
      break;
  }

  // The four anchor views are independent builds over the same offline
  // graph, so they are the coarsest (and cheapest) parallelism available.
  // Each view's own build is deterministic for any thread count and the
  // slots are filled by index, so the ensemble is too.
  const size_t threads = ResolveNumThreads(options.num_threads);
  out.views_.resize(specs.size());
  auto build_view = [&](size_t i, size_t inner_threads) {
    const ViewSpec& spec = specs[i];
    AnoTOptions view_options = options;
    view_options.num_threads = inner_threads;
    view_options.detector.head_anchor = spec.head;
    view_options.detector.tail_anchor = spec.tail;
    if (strategy == DurationStrategy::kAverage) {
      auto mid_graph = MidpointGraph(offline);
      out.views_[i] =
          std::make_unique<AnoT>(AnoT::Build(*mid_graph, view_options));
    } else {
      out.views_[i] =
          std::make_unique<AnoT>(AnoT::Build(offline, view_options));
    }
  };
  if (threads > 1 && specs.size() > 1) {
    // Split the budget across views instead of nesting full-size pools.
    const size_t inner = std::max<size_t>(1, threads / specs.size());
    ThreadPool pool(std::min(threads, specs.size()));
    for (size_t i = 0; i < specs.size(); ++i) {
      // anot-lint: shared-ok build_view (and the offline graph/options it
      // closes over, all const) outlives the tasks — Wait() below joins
      // every view before return, and view i writes only out.views_[i]
      pool.Submit([&build_view, i, inner] { build_view(i, inner); });
    }
    pool.Wait();
  } else {
    for (size_t i = 0; i < specs.size(); ++i) build_view(i, threads);
  }
  for (const ViewSpec& spec : specs) out.view_names_.emplace_back(spec.name);
  return out;
}

Scores DurationAnoT::Score(const Fact& fact) const {
  ANOT_CHECK(!views_.empty());
  const Fact remapped = Remap(fact);
  Scores total;
  uint32_t evaluated = 0;
  for (const auto& view : views_) {
    const Scores s = view->Score(remapped);
    total.static_score += s.static_score;
    total.temporal_score += s.temporal_score;
    total.static_support += s.static_support;
    total.temporal_support += s.temporal_support;
    total.temporal_conflict += s.temporal_conflict;
    total.out_violations += s.out_violations;
    total.associated = total.associated || s.associated;
    evaluated += s.temporal_evaluated ? 1 : 0;
  }
  const double n = static_cast<double>(views_.size());
  total.static_score /= n;
  total.temporal_score /= n;
  total.static_support /= n;
  total.temporal_support /= n;
  total.temporal_conflict /= n;
  total.temporal_evaluated = evaluated > 0;
  return total;
}

void DurationAnoT::IngestValid(const Fact& fact) {
  const Fact remapped = Remap(fact);
  for (auto& view : views_) view->IngestValid(remapped);
}

}  // namespace anot
