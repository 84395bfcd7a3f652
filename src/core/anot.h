#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/explain.h"
#include "core/monitor.h"
#include "core/options.h"
#include "core/scorer.h"
#include "core/updater.h"
#include "mining/category_function.h"
#include "rulegraph/rule_graph.h"
#include "tkg/graph.h"
#include "util/lifetime.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace anot {

class Checkpoint;

/// \brief Top-level AnoT configuration.
struct AnoTOptions {
  DetectorOptions detector;
  /// When true, ProcessArrival runs the synchronous Refresh() once the
  /// monitor fires (the paper's semantics: the rebuild stalls that
  /// arrival). A caller that wants the double-buffered rebuild leaves this
  /// off and calls RefreshAsync() and FinishRefresh() itself. (The paper
  /// disables refresh during evaluation for fairness, §5.2.)
  bool auto_refresh = false;
  /// Worker threads for the offline construction pipeline (category
  /// function passes, candidate costing, duration views) *and* batched
  /// scoring (ScoreBatch); candidate generation is serial. 0 = one worker
  /// per hardware thread. Built models and batched scores are
  /// bit-identical for every value.
  size_t num_threads = 0;

  /// The persisted field list, in checkpoint order (io/checkpoint.cc).
  /// num_threads is bounded so a corrupt file cannot ask for a huge pool.
  template <class V>
  void Fields(V& v) {
    detector.Fields(v);
    v(auto_refresh);
    v(num_threads, size_t{4096});
  }
};

/// \brief The AnoT detector-updater-monitor system (Figure 2).
///
/// Quickstart:
///   AnoT anot = AnoT::Build(offline_tkg, AnoTOptions{});
///   Scores s = anot.Score(fact);                 // detector
///   if (s.static_score < thr_s && s.temporal_score < thr_t)
///     anot.IngestValid(fact);                    // updater + monitor
///   if (anot.monitor().ShouldRefresh()) anot.Refresh();  // or RefreshAsync()
///
/// The instance owns a private copy of the TKG that grows as knowledge is
/// ingested; the caller's offline graph is never mutated.
class AnoT {
 public:
  /// Offline phase: copies the preserved TKG, builds the category function
  /// and the optimal rule graph (Algorithm 1).
  static AnoT Build(const TemporalKnowledgeGraph& offline,
                    const AnoTOptions& options);

  AnoT(AnoT&&) noexcept;
  AnoT& operator=(AnoT&&) noexcept;
  /// Cancels and joins any in-flight background rebuild.
  ~AnoT();

  /// Detector: Algorithm 2. Does not mutate state. When `evidence` is
  /// non-null it is filled with the interpretable byproduct (§4.3.4).
  Scores Score(const Fact& fact, Evidence* evidence = nullptr) const;

  /// Batched detector: scores `facts` concurrently on the serving pool
  /// (scoring is const over graph/categories/rules) and commits results
  /// in arrival order. Bit-identical to calling Score per fact, for any
  /// AnoTOptions::num_threads. Not safe to call concurrently with itself
  /// or with any mutating member.
  std::vector<Scores> ScoreBatch(const std::vector<Fact>& facts) const;

  /// Full online step: scores, feeds the monitor, and — when the scores
  /// clear the validity thresholds — ingests the knowledge (Algorithm 3).
  /// With auto_refresh on, a monitor that fires then triggers Refresh().
  /// Returns the scores. When `effects` is non-null, the ingest's
  /// counters are *accumulated* into it.
  Scores ProcessArrival(const Fact& fact, UpdateEffects* effects = nullptr);

  /// Validity thresholds used by ProcessArrival (tuned on validation in
  /// the experiment protocol). Facts with static_score <= static_threshold
  /// and temporal_score <= temporal_threshold are treated as valid.
  void SetValidityThresholds(double static_threshold,
                             double temporal_threshold);

  /// Updater path for valid knowledge (Algorithm 3). The "-updater"
  /// ablation never calls it (ProtocolOptions::observe_valid = false).
  UpdateEffects IngestValid(const Fact& fact);

  /// Rebuilds the category function and rule graph from the current
  /// (grown) TKG and resets the monitor, inline on the calling thread.
  /// Abandons (cancels) any in-flight background rebuild first.
  void Refresh();

  // -- Asynchronous (double-buffered) refresh -------------------------------
  //
  // RefreshAsync() snapshots the grown TKG and rebuilds the category
  // function + rule graph on a background thread while the current scorer
  // keeps serving. Facts ingested after the snapshot are appended to the
  // served graph as usual; monitor observations after the snapshot are
  // logged. FinishRefresh() is the only swap point: however early the
  // build finishes, every arrival before that call is scored against the
  // old structures, so the scores depend on the arrival sequence alone. A
  // caller that serves through rebuilds swaps a fixed D arrivals after the
  // monitor fires (D = 0 is the synchronous Refresh()):
  //
  //   anot.ProcessArrival(fact);
  //   if (lag == 0 && anot.monitor().ShouldRefresh()) {
  //     anot.RefreshAsync();
  //     lag = D;
  //   } else if (lag > 0 && --lag == 0) {
  //     anot.FinishRefresh();  // blocks only if the build is still running
  //   }
  //
  // The swap:
  //
  //   1. adopt the rebuilt structures (built from the snapshot),
  //   2. replay the served graph's facts past the snapshot through a fresh
  //      Updater, and
  //   3. reset the monitor to the new budget and replay the logged
  //      observations (the in-flight accounting window is preserved).
  //
  // Determinism contract: the post-swap graph, categories, rule graph,
  // scorer state and refresh_count are bit-identical to calling the
  // synchronous Refresh() at the snapshot point followed by IngestValid
  // of the facts ingested since; the post-swap monitor equals a monitor
  // reset to the new budget that then observed the logged window.

  /// Starts a background rebuild; returns immediately. No-op while an
  /// earlier one awaits its FinishRefresh() (requests coalesce).
  void RefreshAsync();

  /// Waits for the background build if it is still running, then swaps it
  /// in. Returns true when a swap happened, false when no build was
  /// started since the last swap (or Refresh() abandoned it).
  bool FinishRefresh();

  const TemporalKnowledgeGraph& graph() const ANOT_LIFETIME_BOUND {
    return *graph_;
  }
  const CategoryFunction& categories() const ANOT_LIFETIME_BOUND {
    return *categories_;
  }
  const RuleGraph& rules() const ANOT_LIFETIME_BOUND { return *rules_; }
  const BuildReport& report() const ANOT_LIFETIME_BOUND { return report_; }
  const Monitor& monitor() const ANOT_LIFETIME_BOUND { return *monitor_; }
  const Updater& updater() const ANOT_LIFETIME_BOUND { return *updater_; }
  Explainer MakeExplainer() const;
  const AnoTOptions& options() const ANOT_LIFETIME_BOUND {
    return *options_;
  }
  size_t refresh_count() const { return refresh_count_; }

  /// Debug validator (compiled behind ANOT_VALIDATE, no-op otherwise):
  /// runs CheckInvariants() on the grown TKG, the category function, the
  /// rule graph, the monitor and the updater. Call between arrivals or
  /// batches and after Refresh/FinishRefresh, never concurrently with
  /// mutation.
  void CheckInvariants() const;

  // -- Checkpoint / warm restart (io/checkpoint.h) --------------------------

  /// Serializes the full detector state to a versioned binary checkpoint.
  /// FailedPrecondition while a background refresh is in flight (quiesce
  /// with FinishRefresh() first). Defined in io/checkpoint.cc.
  Status SaveCheckpoint(const std::string& path) const;

  /// Restores a detector saved by SaveCheckpoint. Processing the remaining
  /// stream on the restored instance is bit-identical to never having
  /// restarted (checkpoint_test pins this under the ANOT_THREADS matrix).
  /// Malformed input of every kind returns an error Status.
  static Result<AnoT> LoadCheckpoint(const std::string& path);

 private:
  /// The checkpoint codec reads/writes private state directly; keeping it
  /// a friend (instead of widening the public API with mutable accessors)
  /// preserves the class's "only serving code mutates state" contract.
  friend class Checkpoint;

  /// Out of line (anot.cc): a defaulted inline ctor would instantiate
  /// ~unique_ptr<AsyncRefresh> in TUs where AsyncRefresh is incomplete.
  AnoT();

  /// The rebuildable structures: what an offline build (or a refresh)
  /// produces from a TKG.
  struct BuiltStructures {
    std::unique_ptr<CategoryFunction> categories;
    std::unique_ptr<RuleGraph> rules;
    BuildReport report;
  };

  /// Runs the CategoryFunction + RuleGraphBuilder pipeline on `graph`.
  /// Pure with respect to the AnoT instance, so it can run on a
  /// background thread against a snapshot. When the resolved thread count
  /// exceeds 1, a scoped pool is created for the category passes. `cancel`
  /// aborts between stages (result must then be discarded).
  static BuiltStructures BuildStructures(const TemporalKnowledgeGraph& graph,
                                         const AnoTOptions& options,
                                         const std::atomic<bool>* cancel);

  /// Builds from the served graph and adopts the result.
  void Rebuild();
  /// Installs built structures: recreates the scorer and updater against
  /// them and resets the monitor to their budget.
  void Adopt(BuiltStructures built);
  /// Recreates scorer_ and updater_ against the current structures.
  void RecreateServingObjects();

  /// Lazily created worker pool for batched scoring; nullptr while the
  /// configured thread count resolves to 1. Mutable because scoring is
  /// logically const — the pool is an execution resource, not state.
  ThreadPool* ServingPool() const ANOT_LIFETIME_BOUND;

  /// Heap-allocated so its address survives moves of the AnoT object:
  /// Scorer and Updater capture a pointer to options_->detector, and
  /// Build() returns by value — with an inline member that pointer would
  /// dangle into the moved-from temporary (a latent UB bug that made
  /// scoring read clobbered stack memory after `AnoT x = AnoT::Build(...)`
  /// was moved again, e.g. into std::optional).
  std::unique_ptr<AnoTOptions> options_;
  std::unique_ptr<TemporalKnowledgeGraph> graph_;
  std::unique_ptr<CategoryFunction> categories_;
  std::unique_ptr<RuleGraph> rules_;
  std::unique_ptr<Scorer> scorer_;
  std::unique_ptr<Updater> updater_;
  std::unique_ptr<Monitor> monitor_;
  mutable std::unique_ptr<ThreadPool> serving_pool_;

  /// In-flight double-buffered rebuild (heap-held so the background
  /// thread's pointer survives moves of the AnoT object), with the monitor
  /// observations logged since its snapshot; nullptr when no refresh is
  /// in flight. Defined in anot.cc; its destructor cancels and joins the
  /// worker, so resetting it abandons the build and its log.
  struct AsyncRefresh;
  std::unique_ptr<AsyncRefresh> async_;

  BuildReport report_;
  double static_threshold_ = 1.0;
  double temporal_threshold_ = 1.0;
  size_t refresh_count_ = 0;
};

}  // namespace anot
