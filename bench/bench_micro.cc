// Google-benchmark micro benchmarks for the performance-critical paths:
// TKG ingestion, PrefixSpan mining, MDL primitives, rule-graph
// construction, scoring, and the online updater.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <tuple>
#include <vector>

#include "core/anot.h"
#include "core/candidates.h"
#include "core/duration.h"
#include "io/checkpoint.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "mdl/encoding.h"
#include "mining/category_function.h"
#include "mining/prefixspan.h"
#include "tkg/split.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace anot {
namespace {

GeneratorConfig BenchWorld(size_t facts) {
  GeneratorConfig cfg;
  cfg.num_entities = 400;
  cfg.num_relations = 40;
  cfg.num_timestamps = 200;
  cfg.num_facts = facts;
  cfg.num_categories = 8;
  cfg.seed = 7;
  return cfg;
}

// anot-lint: lifetime-ok returns a function-local static leaked for the
// whole benchmark process (immortal storage)
const TemporalKnowledgeGraph& SharedGraph() {
  static auto* graph = [] {
    SyntheticGenerator gen(BenchWorld(12000));
    return gen.Generate().release();
  }();
  return *graph;
}

// anot-lint: lifetime-ok returns a function-local static leaked for the
// whole benchmark process (immortal storage)
const AnoT& SharedSystem() {
  static auto* system = [] {
    TimeSplit split = SplitByTimestamps(SharedGraph(), 0.6, 0.1);
    auto train = Subgraph(SharedGraph(), split.train);
    AnoTOptions options;
    options.detector.timespan_tolerance = 10;
    return new AnoT(AnoT::Build(*train, options));
  }();
  return *system;
}

/// The shared detector's build grown by ProcessArrival over the test
/// window: rules admitted online and a non-empty pending-rule table.
struct GrownSystem {
  AnoT system;
  std::vector<Fact> stream;
};

// anot-lint: lifetime-ok returns a function-local static leaked for the
// whole benchmark process (immortal storage)
const GrownSystem& SharedGrownSystem() {
  static auto* grown = [] {
    TimeSplit split = SplitByTimestamps(SharedGraph(), 0.6, 0.1);
    auto train = Subgraph(SharedGraph(), split.train);
    AnoTOptions options;
    options.detector.timespan_tolerance = 10;
    auto* out = new GrownSystem{AnoT::Build(*train, options), {}};
    for (FactId id : split.test) out->stream.push_back(SharedGraph().fact(id));
    for (const Fact& f : out->stream) out->system.ProcessArrival(f);
    return out;
  }();
  return *grown;
}

void BM_TkgAddFact(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    TemporalKnowledgeGraph g;
    state.ResumeTiming();
    for (uint32_t i = 0; i < 2000; ++i) {
      g.AddFact(Fact(i % 97, i % 13, (i * 7) % 89, i % 50));
    }
    benchmark::DoNotOptimize(g.num_facts());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_TkgAddFact);

// Dictionary probe throughput: string_view lookups against an interned
// symbol table. The transparent-hash dense map must answer these without
// allocating a temporary std::string per probe (the pre-overhaul
// std::unordered_map<std::string, ...> could not).
void BM_DictionaryProbe(benchmark::State& state) {
  Dictionary dict;
  std::vector<std::string> names;
  names.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    names.push_back("entity_" + std::to_string(i * 37 % 4096));
    dict.GetOrAdd(names.back());
  }
  uint64_t hits = 0;
  for (auto _ : state) {
    for (const std::string& n : names) {
      hits += dict.TryGet(std::string_view(n)).has_value();
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * names.size());
  // Every name was added, so every timed probe must hit.
  if (hits != state.iterations() * names.size()) {
    state.SkipWithError("dictionary probe missed an added name");
  }
}
BENCHMARK(BM_DictionaryProbe);

void BM_TkgPairLookup(benchmark::State& state) {
  const auto& g = SharedGraph();
  uint64_t found = 0;
  for (auto _ : state) {
    for (const Fact& f : g.facts()) {
      found += g.FactsForPair(f.subject, f.object) != nullptr;
    }
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations() * g.num_facts());
}
BENCHMARK(BM_TkgPairLookup);

void BM_PrefixSpan(benchmark::State& state) {
  const auto& g = SharedGraph();
  std::vector<std::vector<uint32_t>> txns(g.num_entities());
  for (EntityId e = 0; e < g.num_entities(); ++e) {
    const auto& tokens = g.RelationTokens(e);
    txns[e].assign(tokens.begin(), tokens.end());
    std::sort(txns[e].begin(), txns[e].end());
  }
  PrefixSpan::Options opts;
  opts.min_support = 5;
  for (auto _ : state) {
    auto patterns = PrefixSpan::Mine(txns, opts);
    benchmark::DoNotOptimize(patterns.size());
  }
}
BENCHMARK(BM_PrefixSpan);

// PrefixSpan on GDELT-shaped transactions: the GDELT preset at its default
// bench scale has ~61 entities whose token sets each hold a large share of
// its 480 directed relation tokens. At min_support 4 there are 328,364
// frequent itemsets of up to 3 tokens, so the 200,000-pattern cap binds.
// Counters: patterns emitted and whether the cap was hit; the row fails
// unless they equal those pinned values.
void BM_PrefixSpanMine(benchmark::State& state) {
  std::vector<std::vector<uint32_t>> txns;
  {
    const auto graph = SyntheticGenerator(
        DatasetPresets::Gdelt(DatasetPresets::DefaultBenchScale("gdelt")))
                           .Generate();
    txns.resize(graph->num_entities());
    for (EntityId e = 0; e < graph->num_entities(); ++e) {
      const auto& tokens = graph->RelationTokens(e);
      txns[e].assign(tokens.begin(), tokens.end());
      std::sort(txns[e].begin(), txns[e].end());
    }
  }
  PrefixSpan::Options opts;
  opts.min_support = 4;
  bool cap_hit = false;
  const size_t patterns = PrefixSpan::Mine(txns, opts, &cap_hit).size();
  state.counters["patterns"] = static_cast<double>(patterns);
  state.counters["cap_hit"] = cap_hit ? 1.0 : 0.0;
  if (patterns != 200000 || !cap_hit) {
    state.SkipWithError("GDELT mining no longer stops at the pinned cap");
    return;
  }
  for (auto _ : state) {
    auto mined = PrefixSpan::Mine(txns, opts);
    benchmark::DoNotOptimize(mined.data());
  }
}
BENCHMARK(BM_PrefixSpanMine)->Unit(benchmark::kMillisecond);

// Category-function construction on a 1- and a 2-worker pool. Rows time
// wall-clock (UseRealTime), since the shards run off the main thread.
// Before timing, a multi-worker build must equal the 1-worker reference:
// the same categories (combination and members) and the same C(e) for
// every entity.
void BM_CategoryFunctionBuild(benchmark::State& state) {
  const auto& g = SharedGraph();
  CategoryFunctionOptions opts;
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  if (state.range(0) > 1) {
    ThreadPool serial_pool(1);
    const CategoryFunction want =
        CategoryFunction::Build(g, opts, &serial_pool);
    const CategoryFunction got = CategoryFunction::Build(g, opts, &pool);
    bool same = got.num_categories() == want.num_categories();
    for (CategoryId c = 0; same && c < want.num_categories(); ++c) {
      same = got.Combination(c) == want.Combination(c) &&
             got.Members(c) == want.Members(c);
    }
    for (EntityId e = 0; same && e < g.num_entities(); ++e) {
      same = got.Categories(e) == want.Categories(e);
    }
    if (!same) {
      state.SkipWithError("multi-worker category build differs from 1-worker");
      return;
    }
  }
  for (auto _ : state) {
    auto fn = CategoryFunction::Build(g, opts, &pool);
    benchmark::DoNotOptimize(fn.num_categories());
  }
}
BENCHMARK(BM_CategoryFunctionBuild)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("threads")
    ->UseRealTime();

void BM_MdlNegativeErrorBits(benchmark::State& state) {
  double acc = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      acc += NegativeErrorBitsAt(1e10, 1e3, 50, i % 50, i % 20);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MdlNegativeErrorBits);

// Candidate generation alone (the build's serial first stage) on the
// shared 12k-fact world. Counters: distinct edge keys generated, and edges
// materialized (at or above their admissibility bound k_min, then capped).
void BM_CandidateGeneration(benchmark::State& state) {
  const auto& g = SharedGraph();
  DetectorOptions opts;
  opts.timespan_tolerance = 10;
  const CategoryFunction categories = CategoryFunction::Build(g, opts.category);
  size_t generated = 0;
  size_t materialized = 0;
  for (auto _ : state) {
    const CandidatePool pool =
        CandidateGenerator(g, categories, opts).Generate();
    generated = pool.num_generated_edges;
    materialized = pool.edges.size();
  }
  state.counters["generated"] = static_cast<double>(generated);
  state.counters["materialized"] = static_cast<double>(materialized);
}
BENCHMARK(BM_CandidateGeneration)->UseRealTime();

// Offline rule-graph construction at 1/2/4 worker threads. The build is
// bit-identical across thread counts, so the rows are directly comparable
// speedup measurements; threaded rows verify that identity against a
// 1-thread reference before timing (on the small world only — identity is
// thread-count-dependent, not size-dependent) and fail the benchmark if
// the outputs ever disagree. Rows time wall-clock (UseRealTime).
void BM_RuleGraphBuild(benchmark::State& state) {
  const size_t facts = static_cast<size_t>(state.range(0));
  SyntheticGenerator gen(BenchWorld(facts));
  auto graph = gen.Generate();
  AnoTOptions options;
  options.detector.timespan_tolerance = 10;
  options.num_threads = static_cast<size_t>(state.range(1));
  if (options.num_threads > 1 && facts <= 3000) {
    AnoTOptions serial_options = options;
    serial_options.num_threads = 1;
    AnoT serial = AnoT::Build(*graph, serial_options);
    AnoT parallel = AnoT::Build(*graph, options);
    if (serial.rules().num_rules() != parallel.rules().num_rules() ||
        serial.rules().num_edges() != parallel.rules().num_edges() ||
        serial.report().total_bits() != parallel.report().total_bits()) {
      state.SkipWithError(
          "1-thread and N-thread builds disagree; timings are meaningless");
      return;
    }
  }
  for (auto _ : state) {
    AnoT system = AnoT::Build(*graph, options);
    benchmark::DoNotOptimize(system.rules().num_edges());
  }
  state.SetItemsProcessed(state.iterations() * graph->num_facts());
}
BENCHMARK(BM_RuleGraphBuild)
    ->ArgsProduct({{3000, 12000}, {1, 2, 4}})
    ->ArgNames({"facts", "threads"})
    ->UseRealTime();

// Four-view duration ensemble build (§4.7): views parallelize across the
// pool on top of the sharded per-view pipeline. Threaded rows time
// wall-clock (UseRealTime), since the work runs off the main thread.
void BM_DurationFourViewBuild(benchmark::State& state) {
  SyntheticGenerator gen(BenchWorld(3000));
  auto graph = gen.Generate();
  AnoTOptions options;
  options.detector.timespan_tolerance = 10;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    DurationAnoT system =
        DurationAnoT::Build(*graph, options, DurationStrategy::kFourGraphs);
    benchmark::DoNotOptimize(system.num_views());
  }
}
BENCHMARK(BM_DurationFourViewBuild)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->UseRealTime();

// Batched const scoring on the serving pool at 1/2/4 threads. Scores are
// bit-identical to scalar Score for every thread count (pinned by
// online_test), so rows are directly comparable wall-clock (UseRealTime)
// speedup measurements.
void BM_ScoreBatch(benchmark::State& state) {
  TimeSplit split = SplitByTimestamps(SharedGraph(), 0.6, 0.1);
  auto train = Subgraph(SharedGraph(), split.train);
  AnoTOptions options;
  options.detector.timespan_tolerance = 10;
  options.num_threads = static_cast<size_t>(state.range(0));
  AnoT system = AnoT::Build(*train, options);

  const size_t batch_size = static_cast<size_t>(state.range(1));
  std::vector<Fact> batch(batch_size);
  size_t next = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch_size; ++i) {
      batch[i] = SharedGraph().fact(split.test[next++ % split.test.size()]);
    }
    std::vector<Scores> scores = system.ScoreBatch(batch);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_ScoreBatch)
    ->ArgsProduct({{1, 2, 4}, {16, 64}})
    ->ArgNames({"threads", "batch"})
    ->UseRealTime();

// Full-state checkpoint write + read-back of the shared detector, freshly
// built (grown:0) or stream-grown (grown:1, whose pending-rule table and
// online-admitted rules the restore must rebuild). Before any timing, the
// restored detector must score a probe slice identically to the original:
// a fast but wrong serializer must fail the benchmark, not win it.
void BM_CheckpointSaveLoad(benchmark::State& state) {
  const bool load = state.range(0) != 0;
  const bool grown = state.range(1) != 0;
  const AnoT& system = grown ? SharedGrownSystem().system : SharedSystem();
  if (grown && system.updater().pending_rule_count() == 0) {
    state.SkipWithError("the grown detector has no pending rules");
    return;
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "anot_bm_ckpt.bin").string();
  if (!system.SaveCheckpoint(path).ok()) {
    state.SkipWithError("checkpoint save failed");
    return;
  }
  {
    Result<AnoT> restored = AnoT::LoadCheckpoint(path);
    if (!restored.ok()) {
      state.SkipWithError("checkpoint load failed");
      return;
    }
    const auto& facts = SharedGraph().facts();
    for (size_t i = 0; i < std::min<size_t>(256, facts.size()); ++i) {
      const Scores a = system.Score(facts[i]);
      const Scores b = restored.value().Score(facts[i]);
      if (a.static_score != b.static_score ||
          a.temporal_score != b.temporal_score) {
        state.SkipWithError(
            "restored detector diverges from the original; timings are "
            "meaningless");
        return;
      }
    }
  }
  for (auto _ : state) {
    if (load) {
      Result<AnoT> restored = AnoT::LoadCheckpoint(path);
      benchmark::DoNotOptimize(restored.ok());
    } else {
      const Status st = system.SaveCheckpoint(path);
      benchmark::DoNotOptimize(st.ok());
    }
  }
  state.counters["pending_rules"] =
      static_cast<double>(system.updater().pending_rule_count());
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() *
                           std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_CheckpointSaveLoad)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"load", "grown"});

void BM_StaticAndTemporalScoring(benchmark::State& state) {
  const AnoT& system = SharedSystem();
  const auto& facts = SharedGraph().facts();
  size_t i = 0;
  for (auto _ : state) {
    const Scores s = system.Score(facts[i++ % facts.size()]);
    benchmark::DoNotOptimize(s.temporal_score);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StaticAndTemporalScoring);

// Rule mapping (c_s, r, c_o) lookups on a rule graph the updater grew
// over the test stream, where mapping fans out widest. Before any timing,
// every mapping must equal the one-probe-per-category-pair reference: a
// fast but wrong index must fail the benchmark, not win it.
void BM_MapToRules(benchmark::State& state) {
  const AnoT& system = SharedGrownSystem().system;
  const std::vector<Fact>& stream = SharedGrownSystem().stream;

  const Scorer scorer(&system.graph(), &system.categories(), &system.rules(),
                      &system.options().detector);
  std::map<std::tuple<CategoryId, RelationId, CategoryId>, RuleId> table;
  for (RuleId id = 0; id < system.rules().num_rules(); ++id) {
    const AtomicRule& r = system.rules().rule(id);
    table.emplace(std::make_tuple(r.subject_category, r.relation,
                                  r.object_category),
                  id);
  }
  size_t pairs = 0;
  for (const Fact& f : stream) {
    std::vector<RuleId> want;
    for (CategoryId cs : system.categories().Categories(f.subject)) {
      for (CategoryId co : system.categories().Categories(f.object)) {
        ++pairs;
        auto it = table.find(std::make_tuple(cs, f.relation, co));
        if (it != table.end()) want.push_back(it->second);
      }
    }
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    const small_vec<RuleId, 8> got = scorer.MapToRules(f);
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
      state.SkipWithError(
          "rule mapping differs from the reference; timings are meaningless");
      return;
    }
  }

  size_t i = 0;
  for (auto _ : state) {
    const small_vec<RuleId, 8> mapped =
        scorer.MapToRules(stream[i++ % stream.size()]);
    benchmark::DoNotOptimize(mapped.begin());
  }
  state.counters["rules"] = static_cast<double>(system.rules().num_rules());
  state.counters["pairs_per_fact"] =
      static_cast<double>(pairs) / static_cast<double>(stream.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MapToRules);

// Worst per-arrival stall while a rule-graph refresh runs. Synchronous
// mode pays the entire rebuild inside the arrival that triggered it;
// asynchronous mode snapshots, rebuilds on a background thread while the
// old scorer keeps serving, and swaps the build in with FinishRefresh()
// after the burst. max_stall_us is the worst arrival (async: the snapshot
// copy); max_finish_ms is the FinishRefresh() call, which waits for a
// build still running and then adopts it and replays the burst.
void BM_RefreshStall(benchmark::State& state) {
  const bool async = state.range(0) != 0;
  TimeSplit split = SplitByTimestamps(SharedGraph(), 0.6, 0.1);
  auto train = Subgraph(SharedGraph(), split.train);
  AnoTOptions options;
  options.detector.timespan_tolerance = 10;
  AnoT system = AnoT::Build(*train, options);

  const size_t kArrivals = 256;
  double max_stall_us = 0.0;
  double max_finish_ms = 0.0;
  size_t next = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < kArrivals; ++i) {
      const Fact f =
          SharedGraph().fact(split.test[next++ % split.test.size()]);
      WallTimer timer;
      if (i == 0) {
        // Emulates the monitor firing at this arrival.
        if (async) {
          system.RefreshAsync();
        } else {
          system.Refresh();
        }
      }
      system.ProcessArrival(f);
      max_stall_us = std::max(max_stall_us, timer.ElapsedSeconds() * 1e6);
    }
    if (async) {
      WallTimer timer;
      const bool swapped = system.FinishRefresh();
      max_finish_ms = std::max(max_finish_ms, timer.ElapsedSeconds() * 1e3);
      if (!swapped) {
        state.SkipWithError("FinishRefresh() swapped nothing");
        break;
      }
    }
  }
  state.counters["max_stall_us"] = max_stall_us;
  if (async) state.counters["max_finish_ms"] = max_finish_ms;
  state.SetItemsProcessed(state.iterations() * kArrivals);
}
BENCHMARK(BM_RefreshStall)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("async")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3)
    ->UseRealTime();

void BM_UpdaterIngest(benchmark::State& state) {
  TimeSplit split = SplitByTimestamps(SharedGraph(), 0.6, 0.1);
  auto train = Subgraph(SharedGraph(), split.train);
  AnoTOptions options;
  options.detector.timespan_tolerance = 10;
  AnoT system = AnoT::Build(*train, options);
  size_t i = 0;
  for (auto _ : state) {
    // Every pass over the test window starts from the pre-stream detector,
    // so the graph, T(e) and the pending table do not grow with the
    // iteration count.
    if (i == split.test.size()) {
      state.PauseTiming();
      system = AnoT::Build(*train, options);
      i = 0;
      state.ResumeTiming();
    }
    const Fact& f = SharedGraph().fact(split.test[i++]);
    benchmark::DoNotOptimize(system.IngestValid(f).facts_ingested);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdaterIngest);

}  // namespace
}  // namespace anot

BENCHMARK_MAIN();
