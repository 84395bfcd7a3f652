#include "core/anot.h"

#include <atomic>
#include <algorithm>
#include <thread>
#include <utility>

#include "util/logging.h"

namespace anot {

/// One double-buffered rebuild. The worker thread touches only this
/// struct (snapshot in, built structures out) — never the owning AnoT,
/// whose address changes under moves. The join is the one handoff: the
/// serving thread reads `snapshot` and `built` again only after joining
/// the worker (FinishRefresh, or the destructor, which discards them).
struct AnoT::AsyncRefresh {
  /// Written by the serving thread before the worker starts (the thread
  /// constructor provides the happens-before); read-only input to the
  /// worker after that.
  std::unique_ptr<TemporalKnowledgeGraph> snapshot;
  /// Worker-owned until the join. Incomplete when the build was cancelled,
  /// which only the destructor does, so nothing reads it then.
  BuiltStructures built;
  /// anot-sync: serving thread -> worker abort request. Relaxed is
  /// enough: it carries no payload — the worker polls it between build
  /// stages and simply stops; the join below is the real synchronization
  /// point for everything the cancelled worker wrote.
  std::atomic<bool> cancel{false};
  std::thread worker;

  /// One Observe call made after the snapshot: the monitor handoff the
  /// swap replays into the fresh monitor, so the in-flight accounting
  /// window is not lost. Serving-thread only; the worker never reads it.
  struct Observation {
    Timestamp time = kNoTimestamp;
    bool mapped = false;
    bool associated = false;
  };
  std::vector<Observation> observations;

  ~AsyncRefresh() {
    cancel.store(true, std::memory_order_relaxed);
    if (worker.joinable()) worker.join();
  }
};

AnoT::AnoT() = default;
AnoT::AnoT(AnoT&&) noexcept = default;
AnoT& AnoT::operator=(AnoT&&) noexcept = default;
AnoT::~AnoT() = default;

AnoT AnoT::Build(const TemporalKnowledgeGraph& offline,
                 const AnoTOptions& options) {
  AnoT anot;
  anot.options_ = std::make_unique<AnoTOptions>(options);
  anot.graph_ = std::make_unique<TemporalKnowledgeGraph>(offline);
  anot.Rebuild();
  return anot;
}

AnoT::BuiltStructures AnoT::BuildStructures(
    const TemporalKnowledgeGraph& graph, const AnoTOptions& options,
    const std::atomic<bool>* cancel) {
  BuiltStructures out;
  CategoryMiningStats mining;
  {
    // The category build shards on a scoped pool, created only when the
    // thread count resolves above 1. Results are bit-identical for every
    // count.
    std::unique_ptr<ThreadPool> workers;
    const size_t threads = ResolveNumThreads(options.num_threads);
    if (threads > 1) workers = std::make_unique<ThreadPool>(threads);
    out.categories = std::make_unique<CategoryFunction>(CategoryFunction::Build(
        graph, options.detector.category, workers.get(), cancel, &mining));
  }
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return out;  // incomplete: caller discards
  }
  RuleGraphBuilder builder(graph, *out.categories, options.detector,
                           options.num_threads);
  auto built = builder.Build(cancel);
  out.rules = std::move(built.rule_graph);
  out.report = built.report;
  out.report.num_mined_combinations = mining.num_mined_combinations;
  out.report.combination_cap_hit = mining.combination_cap_hit;
  return out;
}

void AnoT::Rebuild() {
  Adopt(BuildStructures(*graph_, *options_, /*cancel=*/nullptr));
}

void AnoT::Adopt(BuiltStructures built) {
  categories_ = std::move(built.categories);
  rules_ = std::move(built.rules);
  report_ = built.report;
  RecreateServingObjects();
  monitor_ = std::make_unique<Monitor>(report_);
}

void AnoT::RecreateServingObjects() {
  scorer_ = std::make_unique<Scorer>(graph_.get(), categories_.get(),
                                     rules_.get(), &options_->detector);
  updater_ = std::make_unique<Updater>(graph_.get(), categories_.get(),
                                       rules_.get(), &options_->detector);
}

Scores AnoT::Score(const Fact& fact, Evidence* evidence) const {
  return scorer_->Score(fact, evidence);
}

void AnoT::SetValidityThresholds(double static_threshold,
                                 double temporal_threshold) {
  static_threshold_ = static_threshold;
  temporal_threshold_ = temporal_threshold;
}

UpdateEffects AnoT::IngestValid(const Fact& fact) {
  return updater_->Ingest(fact);
}

ThreadPool* AnoT::ServingPool() const {
  const size_t threads = ResolveNumThreads(options_->num_threads);
  if (threads <= 1) return nullptr;
  if (serving_pool_ == nullptr) {
    serving_pool_ = std::make_unique<ThreadPool>(threads);
  }
  return serving_pool_.get();
}

std::vector<Scores> AnoT::ScoreBatch(const std::vector<Fact>& facts) const {
  const size_t n = facts.size();
  std::vector<Scores> out(n);
  ThreadPool* pool = n >= 2 ? ServingPool() : nullptr;
  // Each slot is written independently, so any partition yields the same
  // result; a few shards per worker smooth out fact-cost skew.
  const size_t num_shards =
      pool == nullptr ? 1 : std::min(n, 4 * pool->num_threads());
  ParallelForShards(pool, n, num_shards,
                    [&](size_t /*shard*/, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) out[i] = scorer_->Score(facts[i]);
  });
  return out;
}

Scores AnoT::ProcessArrival(const Fact& fact, UpdateEffects* effects) {
  const Scores scores = scorer_->Score(fact);
  const bool mapped = scores.static_support > 0.0;
  monitor_->Observe(fact.time, mapped, scores.associated);
  if (async_ != nullptr) {
    async_->observations.push_back({fact.time, mapped, scores.associated});
  }
  const bool valid = scores.static_score <= static_threshold_ &&
                     (!scores.temporal_evaluated ||
                      scores.temporal_score <= temporal_threshold_);
  if (valid) {
    const UpdateEffects e = IngestValid(fact);
    if (effects != nullptr) effects->Accumulate(e);
  }
  if (options_->auto_refresh && monitor_->ShouldRefresh()) Refresh();
  return scores;
}

void AnoT::Refresh() {
  async_.reset();  // abandons any in-flight build: cancels and joins it
  ++refresh_count_;
  Rebuild();
}

void AnoT::RefreshAsync() {
  if (async_ != nullptr) return;  // coalesce: one build per FinishRefresh
  async_ = std::make_unique<AsyncRefresh>();
  async_->snapshot = std::make_unique<TemporalKnowledgeGraph>(*graph_);
  // The worker owns only the heap-held AsyncRefresh (stable across moves
  // of this AnoT) and a copy of the options.
  AsyncRefresh* state = async_.get();
  const AnoTOptions options = *options_;
  state->worker = std::thread([state, options] {
    state->built = BuildStructures(*state->snapshot, options, &state->cancel);
  });
}

bool AnoT::FinishRefresh() {
  if (async_ == nullptr) return false;
  async_->worker.join();  // blocks only while the build is still running
  ANOT_CHECK(async_->built.rules != nullptr);
  // 1. Adopt the structures built from the snapshot. The served graph
  // holds the snapshot's facts followed by every fact ingested since:
  // Updater::Ingest always appends, and it is the graph's only mutator
  // while a refresh is in flight.
  const std::unique_ptr<TemporalKnowledgeGraph> served = std::move(graph_);
  const std::unique_ptr<AsyncRefresh> done = std::move(async_);
  graph_ = std::move(done->snapshot);
  Adopt(std::move(done->built));
  // 2. Replay that suffix through the fresh updater (its serving-time
  // UpdateEffects were already reported; the replay's are bookkeeping
  // against the new state and are discarded). Each fact is read from the
  // served graph, never from graph_, which the replay grows.
  const size_t snapshot_facts = graph_->num_facts();
  for (size_t id = snapshot_facts; id < served->num_facts(); ++id) {
    updater_->Ingest(served->fact(static_cast<FactId>(id)));
  }
  // 3. Replay the observation window into the fresh monitor so the
  // in-flight bucket accounting is not lost across the swap.
  for (const AsyncRefresh::Observation& o : done->observations) {
    monitor_->Observe(o.time, o.mapped, o.associated);
  }
  ++refresh_count_;
  return true;
}

Explainer AnoT::MakeExplainer() const {
  return Explainer(graph_.get(), categories_.get(), rules_.get());
}

void AnoT::CheckInvariants() const {
#ifdef ANOT_VALIDATE
  graph_->CheckInvariants();
  categories_->CheckInvariants(graph_->num_entities());
  rules_->CheckInvariants();
  monitor_->CheckInvariants();
  if (updater_ != nullptr) updater_->CheckInvariants();
#endif
}

}  // namespace anot
