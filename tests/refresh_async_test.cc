// Equivalence harness for the asynchronous double-buffered refresh: pins
// the determinism contract of AnoT::RefreshAsync as a tested property —
// FinishRefresh() is the only swap point, so every arrival before it is
// scored against the old structures however early the build finishes, and
// the post-swap state (scores, rule graph, build report, monitor
// counters, refresh_count) is bit-identical to a synchronous Refresh() at
// the snapshot point followed by IngestValid of the facts ingested since
// the snapshot, with the observation window replayed into the reset
// monitor. Every comparison is exact (EXPECT_EQ on doubles).
//
// CI runs this suite under ANOT_THREADS=1 and ANOT_THREADS=4 (same
// convention as online_test) and again under ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anomaly/injector.h"
#include "core/anot.h"
#include "datagen/generator.h"
#include "serving_test_util.h"
#include "tkg/split.h"
#include "util/timer.h"

namespace anot {
namespace {

GeneratorConfig RefreshWorldConfig() {
  GeneratorConfig cfg;
  cfg.num_entities = 120;
  cfg.num_relations = 18;
  cfg.num_timestamps = 80;
  cfg.num_facts = 2000;
  cfg.num_categories = 5;
  cfg.num_chain_rules = 4;
  cfg.num_triadic_rules = 2;
  cfg.chain_follow_prob = 0.7;
  cfg.noise_fraction = 0.03;
  cfg.seed = 4321;
  return cfg;
}

AnoTOptions RefreshOptions(size_t num_threads) {
  AnoTOptions options;
  options.detector.category.min_support = 4;
  options.detector.timespan_tolerance = 10;
  options.detector.max_recursion_steps = 2;
  options.num_threads = num_threads;
  return options;
}

/// The validity rule ProcessArrival applies at the default thresholds
/// (1.0, 1.0): decides which arrivals the updater ingested.
bool IngestedAtDefaultThresholds(const Scores& s) {
  return s.static_score <= 1.0 &&
         (!s.temporal_evaluated || s.temporal_score <= 1.0);
}

/// Feeds `facts` through ProcessArrival in order, appending every score
/// to `out`.
void ProcessAll(AnoT* system, const std::vector<Fact>& facts,
                std::vector<Scores>* out) {
  for (const Fact& f : facts) out->push_back(system->ProcessArrival(f));
}

/// Shared expensive fixture: one world, one split, one arrival stream cut
/// into prefix / window / probes, plus the two sequential references.
///
///   prefix  — processed before the snapshot (identical in every run)
///   window  — processed between RefreshAsync() and FinishRefresh():
///             scored against the old structures, logged for replay
///   probes  — processed after the swap: scored against the new state
class RefreshAsyncFixture : public ::testing::Test {
 protected:
  static constexpr size_t kPrefix = 80;
  static constexpr size_t kWindow = 30;
  static constexpr size_t kProbes = 20;

  static void SetUpTestSuite() {
    SyntheticGenerator gen(RefreshWorldConfig());
    graph_ = gen.Generate().release();
    split_ = new TimeSplit(SplitByTimestamps(*graph_, 0.6, 0.1));
    train_ = Subgraph(*graph_, split_->train).release();

    AnomalyInjector injector(InjectorConfig{});
    EvalStream labeled = injector.Inject(*graph_, split_->test);
    ASSERT_GE(labeled.arrivals.size(), kPrefix + kWindow + kProbes);
    auto slice = [&](size_t begin, size_t n) {
      std::vector<Fact> out;
      for (size_t i = begin; i < begin + n; ++i) {
        out.push_back(labeled.arrivals[i].fact);
      }
      return out;
    };
    prefix_ = new std::vector<Fact>(slice(0, kPrefix));
    window_ = new std::vector<Fact>(slice(kPrefix, kWindow));
    probes_ = new std::vector<Fact>(slice(kPrefix + kWindow, kProbes));

    // Reference A — the old-structure scores of the window: a sequential
    // system that processes prefix + window with no refresh at all.
    {
      AnoT r = AnoT::Build(*train_, RefreshOptions(1));
      for (const Fact& f : *prefix_) r.ProcessArrival(f);
      ref_window_scores_ = new std::vector<Scores>();
      for (const Fact& f : *window_) {
        ref_window_scores_->push_back(r.ProcessArrival(f));
      }
    }

    // Reference B — the contract's right-hand side: synchronous Refresh()
    // at the snapshot point, then IngestValid of the facts the async run
    // ingests during the window, then the probes.
    {
      ref_ = new AnoT(AnoT::Build(*train_, RefreshOptions(1)));
      for (const Fact& f : *prefix_) ref_->ProcessArrival(f);
      ref_->Refresh();
      size_t replayed = 0;
      for (size_t i = 0; i < window_->size(); ++i) {
        if (IngestedAtDefaultThresholds((*ref_window_scores_)[i])) {
          ref_->IngestValid((*window_)[i]);
          ++replayed;
        }
      }
      // Vacuity guards: the window must exercise both replay branches.
      ASSERT_GT(replayed, 0u) << "window never ingests: replay is vacuous";
      ASSERT_LT(replayed, window_->size())
          << "window always ingests: threshold gate is vacuous";
      ref_probe_scores_ = new std::vector<Scores>();
      for (const Fact& f : *probes_) {
        ref_probe_scores_->push_back(ref_->ProcessArrival(f));
      }
    }
  }

  static void TearDownTestSuite() {
    delete ref_probe_scores_;
    delete ref_;
    delete ref_window_scores_;
    delete probes_;
    delete window_;
    delete prefix_;
    delete train_;
    delete split_;
    delete graph_;
    ref_probe_scores_ = nullptr;
    ref_ = nullptr;
    ref_window_scores_ = nullptr;
    probes_ = nullptr;
    window_ = nullptr;
    prefix_ = nullptr;
    train_ = nullptr;
    split_ = nullptr;
    graph_ = nullptr;
  }

  /// The expected post-swap monitor: reset to the post-refresh report's
  /// budget and universes, then fed the window observations (recorded
  /// from old-structure scores) and the probe observations (new-structure
  /// scores), exactly as ProcessArrival observed them.
  static Monitor ExpectedMonitor() {
    Monitor expected(ref_->report());
    for (size_t i = 0; i < window_->size(); ++i) {
      const Scores& s = (*ref_window_scores_)[i];
      expected.Observe((*window_)[i].time, s.static_support > 0.0,
                       s.associated);
    }
    for (size_t i = 0; i < probes_->size(); ++i) {
      const Scores& s = (*ref_probe_scores_)[i];
      expected.Observe((*probes_)[i].time, s.static_support > 0.0,
                       s.associated);
    }
    return expected;
  }

  static TemporalKnowledgeGraph* graph_;
  static TimeSplit* split_;
  static TemporalKnowledgeGraph* train_;
  static std::vector<Fact>* prefix_;
  static std::vector<Fact>* window_;
  static std::vector<Fact>* probes_;
  static std::vector<Scores>* ref_window_scores_;
  static std::vector<Scores>* ref_probe_scores_;
  static AnoT* ref_;
};

TemporalKnowledgeGraph* RefreshAsyncFixture::graph_ = nullptr;
TimeSplit* RefreshAsyncFixture::split_ = nullptr;
TemporalKnowledgeGraph* RefreshAsyncFixture::train_ = nullptr;
std::vector<Fact>* RefreshAsyncFixture::prefix_ = nullptr;
std::vector<Fact>* RefreshAsyncFixture::window_ = nullptr;
std::vector<Fact>* RefreshAsyncFixture::probes_ = nullptr;
std::vector<Scores>* RefreshAsyncFixture::ref_window_scores_ = nullptr;
std::vector<Scores>* RefreshAsyncFixture::ref_probe_scores_ = nullptr;
AnoT* RefreshAsyncFixture::ref_ = nullptr;

// ------------------------------------------- post-swap state equivalence

TEST_F(RefreshAsyncFixture, PostSwapStateBitIdenticalToSyncRefreshPlusReplay) {
  // {1, 4} fallback: each config pays a full offline + background build,
  // so the unset-env sweep stays at one serial and one contended row.
  for (size_t threads : ThreadCountsUnderTest({1, 4})) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    AnoT system = AnoT::Build(*train_, RefreshOptions(threads));
    std::vector<Scores> prefix_scores;
    ProcessAll(&system, *prefix_, &prefix_scores);
    system.RefreshAsync();

    // The window is served against the old structures while the build
    // runs; the swap waits for FinishRefresh() after its last arrival.
    std::vector<Scores> window_scores;
    ProcessAll(&system, *window_, &window_scores);
    EXPECT_EQ(system.refresh_count(), 0u);
    ASSERT_TRUE(system.FinishRefresh());
    EXPECT_EQ(system.refresh_count(), 1u);
    std::vector<Scores> probe_scores;
    ProcessAll(&system, *probes_, &probe_scores);

    // Window scores: the old structures, bit for bit.
    ASSERT_EQ(window_scores.size(), ref_window_scores_->size());
    for (size_t i = 0; i < window_scores.size(); ++i) {
      ExpectScoresIdentical((*ref_window_scores_)[i], window_scores[i], i);
    }
    // Probe scores: the post-swap structures, bit for bit.
    ASSERT_EQ(probe_scores.size(), ref_probe_scores_->size());
    for (size_t i = 0; i < probe_scores.size(); ++i) {
      ExpectScoresIdentical((*ref_probe_scores_)[i], probe_scores[i], i);
    }
    // Post-swap structures and build report.
    EXPECT_EQ(system.rules().ToString(), ref_->rules().ToString());
    EXPECT_EQ(system.graph().num_facts(), ref_->graph().num_facts());
    EXPECT_EQ(system.categories().num_categories(),
              ref_->categories().num_categories());
    EXPECT_EQ(system.report().negative_bits, ref_->report().negative_bits);
    EXPECT_EQ(system.report().model_bits, ref_->report().model_bits);
    EXPECT_EQ(system.report().num_rules, ref_->report().num_rules);
    EXPECT_EQ(system.report().num_edges, ref_->report().num_edges);
    // Monitor handoff: reset to the new budget + replayed window.
    const Monitor expected = ExpectedMonitor();
    EXPECT_EQ(system.monitor().online_negative_bits(),
              expected.online_negative_bits());
    EXPECT_EQ(system.monitor().ShouldRefresh(), expected.ShouldRefresh());
    // The adopted structures plus the replayed ingest window must be
    // structurally coherent.
    ValidateAtCommitBoundary(system);
  }
}

TEST_F(RefreshAsyncFixture, FinishedBuildWaitsForFinishRefresh) {
  // A build that finishes long before FinishRefresh() must not be swapped
  // in by the arrivals served meanwhile. Three times a synchronous
  // rebuild's wall time lets the background build finish first; a build
  // that is still running when the window ends must not swap either, so
  // a slow machine cannot fail this case.
  double sync_seconds = 0.0;
  {
    AnoT timed = AnoT::Build(*train_, RefreshOptions(1));
    for (const Fact& f : *prefix_) timed.ProcessArrival(f);
    WallTimer timer;
    timed.Refresh();
    sync_seconds = timer.ElapsedSeconds();
  }
  AnoT system = AnoT::Build(*train_, RefreshOptions(1));
  for (const Fact& f : *prefix_) system.ProcessArrival(f);
  system.RefreshAsync();
  std::this_thread::sleep_for(std::chrono::duration<double>(3 * sync_seconds));
  for (size_t i = 0; i < window_->size(); ++i) {
    ExpectScoresIdentical((*ref_window_scores_)[i],
                          system.ProcessArrival((*window_)[i]), i);
    ASSERT_EQ(system.refresh_count(), 0u) << "swapped after arrival " << i;
  }
  ASSERT_TRUE(system.FinishRefresh());
  EXPECT_EQ(system.refresh_count(), 1u);
}

// -------------------------------------------------- lifecycle edge cases

TEST_F(RefreshAsyncFixture, EmptyWindowSwapEqualsSynchronousRefresh) {
  AnoT async = AnoT::Build(*train_, RefreshOptions(1));
  AnoT sync = AnoT::Build(*train_, RefreshOptions(1));
  for (const Fact& f : *prefix_) {
    async.ProcessArrival(f);
    sync.ProcessArrival(f);
  }
  async.RefreshAsync();
  EXPECT_TRUE(async.FinishRefresh());
  sync.Refresh();
  ValidateAtCommitBoundary(async);
  ValidateAtCommitBoundary(sync);

  EXPECT_EQ(async.refresh_count(), 1u);
  EXPECT_FALSE(async.FinishRefresh()) << "the swap consumed the build";
  EXPECT_EQ(async.rules().ToString(), sync.rules().ToString());
  EXPECT_EQ(async.graph().num_facts(), sync.graph().num_facts());
  EXPECT_EQ(async.report().negative_bits, sync.report().negative_bits);
  EXPECT_EQ(async.monitor().online_negative_bits(),
            sync.monitor().online_negative_bits());
}

TEST_F(RefreshAsyncFixture, RequestsCoalesceWhileInFlight) {
  AnoT system = AnoT::Build(*train_, RefreshOptions(1));
  system.RefreshAsync();
  system.RefreshAsync();  // coalesced: still the same in-flight build
  EXPECT_TRUE(system.FinishRefresh());
  EXPECT_EQ(system.refresh_count(), 1u);
  EXPECT_FALSE(system.FinishRefresh()) << "nothing left in flight";
  system.RefreshAsync();  // a new cycle is allowed after the swap
  EXPECT_TRUE(system.FinishRefresh());
  EXPECT_EQ(system.refresh_count(), 2u);
}

TEST_F(RefreshAsyncFixture, SynchronousRefreshAbandonsInFlightBuild) {
  AnoT system = AnoT::Build(*train_, RefreshOptions(1));
  AnoT reference = AnoT::Build(*train_, RefreshOptions(1));
  system.RefreshAsync();
  system.Refresh();  // cancels the background build, rebuilds inline
  reference.Refresh();
  EXPECT_FALSE(system.FinishRefresh()) << "the abandoned build cannot swap";
  EXPECT_EQ(system.refresh_count(), 1u);
  EXPECT_EQ(system.rules().ToString(), reference.rules().ToString());
}

TEST_F(RefreshAsyncFixture, DestructorAndMoveHandleInFlightBuild) {
  {
    AnoT doomed = AnoT::Build(*train_, RefreshOptions(1));
    doomed.RefreshAsync();
    // Destroyed while the build runs: cancelled and joined, no leak/hang.
  }
  AnoT original = AnoT::Build(*train_, RefreshOptions(1));
  original.RefreshAsync();
  AnoT moved = std::move(original);  // background state survives the move
  EXPECT_TRUE(moved.FinishRefresh());
  EXPECT_EQ(moved.refresh_count(), 1u);
  const Fact& probe = probes_->front();
  (void)moved.Score(probe);  // serving still works post-swap
}

// ------------------------------------- monitor-driven background refresh

TEST_F(RefreshAsyncFixture, CallerDrivenLagLoopIdenticalAcrossThreadCounts) {
  // The caller-driven loop from anot.h: a monitor that fires starts a
  // background build, and FinishRefresh() swaps it in kLag arrivals
  // later. Every output then depends on the arrival sequence alone.
  //
  // Real facts, then a garbage flood, 80 arrivals per tick, whose
  // unexplained cost passes the training L(N_G) (Eq. 11; about 3.2k bits
  // in this world, passed after about 250 flood arrivals), then more real
  // facts served after the swap.
  std::vector<Fact> stream = *prefix_;
  const EntityId base = static_cast<EntityId>(graph_->num_entities());
  const Timestamp t0 = graph_->max_time() + 1;
  constexpr int kFlood = 400;
  for (int i = 0; i < kFlood; ++i) {
    stream.push_back(Fact(base + i, 0, base + i + 1, t0 + i / 80));
  }
  stream.insert(stream.end(), window_->begin(), window_->end());
  constexpr size_t kLag = 16;

  struct Run {
    std::vector<Scores> scores;
    std::string rules;
    size_t refresh_count = 0;
  };
  std::vector<Run> runs;
  const std::vector<size_t> thread_counts = ThreadCountsUnderTest({1, 4});
  for (size_t threads : thread_counts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    AnoT system = AnoT::Build(*train_, RefreshOptions(threads));
    Run run;
    size_t lag = 0;
    size_t first_swap = stream.size();
    for (size_t i = 0; i < stream.size(); ++i) {
      run.scores.push_back(system.ProcessArrival(stream[i]));
      if (lag == 0 && system.monitor().ShouldRefresh()) {
        system.RefreshAsync();
        lag = kLag;
      } else if (lag > 0 && --lag == 0) {
        ASSERT_TRUE(system.FinishRefresh());
        first_swap = std::min(first_swap, i);
      }
    }
    // Vacuity guard: a swap must land with arrivals left to score after it.
    ASSERT_LT(first_swap + 1, stream.size()) << "monitor never fired";
    ValidateAtCommitBoundary(system);
    run.rules = system.rules().ToString();
    run.refresh_count = system.refresh_count();
    runs.push_back(std::move(run));
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    SCOPED_TRACE("threads=" + std::to_string(thread_counts[r]));
    ASSERT_EQ(runs[r].scores.size(), runs[0].scores.size());
    for (size_t i = 0; i < runs[0].scores.size(); ++i) {
      ExpectScoresIdentical(runs[0].scores[i], runs[r].scores[i], i);
    }
    EXPECT_EQ(runs[r].rules, runs[0].rules);
    EXPECT_EQ(runs[r].refresh_count, runs[0].refresh_count);
  }
}

}  // namespace
}  // namespace anot
