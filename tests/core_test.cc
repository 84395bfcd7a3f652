#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <random>

#include "anomaly/injector.h"
#include "core/anot.h"
#include "core/builder.h"
#include "core/candidates.h"
#include "core/duration.h"
#include "core/witness_scan.h"
#include "datagen/generator.h"
#include "io/checkpoint.h"
#include "tkg/split.h"

namespace anot {
namespace {

GeneratorConfig TestWorldConfig() {
  GeneratorConfig cfg;
  cfg.num_entities = 250;
  cfg.num_relations = 30;
  cfg.num_timestamps = 150;
  cfg.num_facts = 8000;
  cfg.num_categories = 6;
  cfg.num_chain_rules = 6;
  cfg.num_triadic_rules = 3;
  cfg.chain_follow_prob = 0.7;
  cfg.noise_fraction = 0.03;
  cfg.secondary_category_prob = 0.1;
  cfg.seed = 77;
  return cfg;
}

DetectorOptions TestDetectorOptions() {
  DetectorOptions opts;
  opts.category.min_support = 4;
  // Smaller than the injector's minimum time shift (0.3 x window span),
  // so genuinely shifted facts disagree with preserved timespans.
  opts.timespan_tolerance = 10;
  opts.max_recursion_steps = 2;
  return opts;
}

/// Shared expensive fixture: one synthetic world + one build.
class CoreFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen_ = new SyntheticGenerator(TestWorldConfig());
    graph_ = gen_->Generate().release();
    split_ = new TimeSplit(SplitByTimestamps(*graph_, 0.6, 0.1));
    train_ = Subgraph(*graph_, split_->train).release();

    AnoTOptions options;
    options.detector = TestDetectorOptions();
    anot_ = new AnoT(AnoT::Build(*train_, options));
  }
  static void TearDownTestSuite() {
    delete anot_;
    delete train_;
    delete split_;
    delete graph_;
    delete gen_;
    anot_ = nullptr;
    train_ = nullptr;
    split_ = nullptr;
    graph_ = nullptr;
    gen_ = nullptr;
  }

  static SyntheticGenerator* gen_;
  static TemporalKnowledgeGraph* graph_;
  static TimeSplit* split_;
  static TemporalKnowledgeGraph* train_;
  static AnoT* anot_;
};

SyntheticGenerator* CoreFixture::gen_ = nullptr;
TemporalKnowledgeGraph* CoreFixture::graph_ = nullptr;
TimeSplit* CoreFixture::split_ = nullptr;
TemporalKnowledgeGraph* CoreFixture::train_ = nullptr;
AnoT* CoreFixture::anot_ = nullptr;

// ----------------------------------------------------------- Candidates

TEST_F(CoreFixture, CandidateGenerationProducesRulesAndEdges) {
  auto categories =
      CategoryFunction::Build(*train_, TestDetectorOptions().category);
  DetectorOptions opts = TestDetectorOptions();
  CandidateGenerator generator(*train_, categories, opts);
  CandidatePool pool = generator.Generate();

  EXPECT_GT(pool.rules.size(), 20u);
  EXPECT_GT(pool.edges.size(), 20u);
  // Every assertion maps back to a fact the rule actually describes.
  for (const auto& c : pool.rules) {
    ASSERT_FALSE(c.assertions.empty());
    for (FactId f : c.assertions) {
      EXPECT_EQ(train_->fact(f).relation, c.rule.relation);
    }
    EXPECT_EQ(c.subject_entropy.total(), c.assertions.size());
  }
  // Edge endpoints reference valid rule candidates; timespans nonnegative.
  // Every assertion's tail fact is one the tail rule describes: edges are
  // keyed on the exact (kind, head, mid, tail), so no two edges' assertions
  // can merge.
  auto has = [](const std::vector<CategoryId>& cats, CategoryId c) {
    return std::find(cats.begin(), cats.end(), c) != cats.end();
  };
  bool saw_triadic = false;
  for (const auto& e : pool.edges) {
    ASSERT_LT(e.head, pool.rules.size());
    ASSERT_LT(e.tail, pool.rules.size());
    saw_triadic |= (e.kind == RuleEdgeKind::kTriadic);
    for (Timestamp s : e.timespans) EXPECT_GE(s, 0);
    EXPECT_EQ(e.tail_facts.size(), e.timespans.size());
    EXPECT_EQ(e.timespan_entropy.total(), e.tail_facts.size());
    const AtomicRule& tail = pool.rules[e.tail].rule;
    for (FactId id : e.tail_facts) {
      const Fact& f = train_->fact(id);
      EXPECT_EQ(f.relation, tail.relation);
      EXPECT_TRUE(has(categories.Categories(f.subject), tail.subject_category));
      EXPECT_TRUE(has(categories.Categories(f.object), tail.object_category));
    }
  }
  EXPECT_TRUE(saw_triadic);
  EXPECT_GT(pool.num_generated_edges, pool.edges.size());
}

TEST_F(CoreFixture, CandidateEdgeCapRespected) {
  auto categories =
      CategoryFunction::Build(*train_, TestDetectorOptions().category);
  DetectorOptions opts = TestDetectorOptions();
  const CandidatePool uncapped =
      CandidateGenerator(*train_, categories, opts).Generate();
  // More than 50 edges pass the admissibility bound, so the cap binds.
  ASSERT_GT(uncapped.edges.size(), 50u);
  opts.max_candidate_edges = 50;
  const CandidatePool pool =
      CandidateGenerator(*train_, categories, opts).Generate();
  ASSERT_EQ(pool.edges.size(), 50u);
  EXPECT_EQ(pool.num_generated_edges, uncapped.num_generated_edges);
  // The kept edges are the highest-support survivors, in pool order.
  std::vector<size_t> supports;
  for (const EdgeCandidate& e : uncapped.edges) supports.push_back(e.support());
  std::sort(supports.rbegin(), supports.rend());
  size_t min_kept = supports.front();
  size_t j = 0;
  for (const EdgeCandidate& e : pool.edges) {
    auto same = [&e](const EdgeCandidate& u) {
      return u.kind == e.kind && u.head == e.head && u.mid == e.mid &&
             u.tail == e.tail && u.tail_facts == e.tail_facts;
    };
    while (j < uncapped.edges.size() && !same(uncapped.edges[j])) ++j;
    ASSERT_LT(j, uncapped.edges.size()) << "kept edge not in pool order";
    ++j;
    min_kept = std::min(min_kept, e.support());
  }
  EXPECT_EQ(min_kept, supports[49]);
}

// --------------------------------------------------------------- Builder

TEST_F(CoreFixture, BuildReportIsCoherent) {
  const BuildReport& report = anot_->report();
  EXPECT_GT(report.num_rules, 0u);
  EXPECT_GT(report.num_edges, 0u);
  EXPECT_GT(report.num_candidate_rules, report.num_rules);
  EXPECT_GT(report.explained_fraction, 0.5)
      << "planted schemas should make most facts mappable";
  EXPECT_LE(report.explained_fraction, 1.0);
  EXPECT_GE(report.explained_fraction, report.associated_fraction);
  EXPECT_GT(report.model_bits, 0.0);
  EXPECT_GT(report.negative_bits, 0.0);
  EXPECT_GT(report.build_seconds, 0.0);
  EXPECT_GT(report.num_generated_candidate_edges, report.num_candidate_edges);
  EXPECT_GE(report.num_candidate_edges, report.num_edges);
}

TEST_F(CoreFixture, SelectedEdgesClearTheAdmissibilityBound) {
  // An edge is admitted only if support * B exceeds its model bits, with
  // B = log2 U2 the most one association can save (mdl/encoding.h).
  const BuildReport& report = anot_->report();
  MdlUniverse universe;
  universe.num_entities = static_cast<double>(train_->num_entities());
  universe.num_candidate_rules =
      static_cast<double>(report.num_candidate_rules);
  const double b =
      AssociationGainBoundBits(Tier2Universe(universe.num_entities));
  const RuleGraph& rules = anot_->rules();
  ASSERT_GT(rules.num_edges(), 0u);
  for (RuleEdgeId id = 0; id < rules.num_edges(); ++id) {
    const RuleEdge& e = rules.edge(id);
    const double model_bits =
        RuleEdgeBits(universe, e.kind == RuleEdgeKind::kTriadic);
    EXPECT_GT(static_cast<double>(e.support) * b, model_bits) << "edge " << id;
    EXPECT_GE(e.support, MinAdmissibleEdgeSupport(
                             universe, e.kind == RuleEdgeKind::kTriadic))
        << "edge " << id;
  }
}

TEST_F(CoreFixture, SelectionShrinksDescriptionLength) {
  // An empty model prices everything as tier-1 errors; the built model
  // must cost strictly less in total.
  const BuildReport& report = anot_->report();
  const double e = static_cast<double>(train_->num_entities());
  const double r = static_cast<double>(train_->num_relations());
  NegativeErrorLedger empty_ledger(Tier1Universe(e, r), Tier2Universe(e));
  for (const auto& [t, ids] : train_->by_time()) {
    empty_ledger.SetTimestampTotal(t, static_cast<uint32_t>(ids.size()));
  }
  EXPECT_LT(report.total_bits(), empty_ledger.total_cost());
}

TEST_F(CoreFixture, RuleSupportsArePositive) {
  const RuleGraph& rules = anot_->rules();
  for (RuleId id = 0; id < rules.num_rules(); ++id) {
    EXPECT_GT(rules.support(id), 0u);
  }
}

TEST_F(CoreFixture, DeterministicBuild) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT second = AnoT::Build(*train_, options);
  EXPECT_EQ(second.rules().num_rules(), anot_->rules().num_rules());
  EXPECT_EQ(second.rules().num_edges(), anot_->rules().num_edges());
  EXPECT_DOUBLE_EQ(second.report().negative_bits,
                   anot_->report().negative_bits);
}

// ------------------------------------------- parallel build determinism
//
// The parallel offline pipeline guarantees bit-identical output for every
// thread count (deterministic sharding + ordered merges). These tests pin
// that contract on the datagen test world, and a golden fingerprint pins
// the serial candidate generation itself. EXPECT_EQ on doubles is
// deliberate: byte-identity, not tolerance.

/// FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void Mix(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void MixBits(double x) {
    uint64_t word;
    std::memcpy(&word, &x, sizeof word);
    Mix(word);
  }
  template <class T>
  void MixAll(const std::vector<T>& values) {
    Mix(values.size());
    for (T v : values) Mix(static_cast<uint64_t>(v));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Bitwise fingerprint of a candidate pool: rule keys, assertion ids, edge
/// kinds and endpoints, tail facts, timespans, and the bit pattern of every
/// entropy total.
uint64_t PoolFingerprint(const CandidatePool& pool) {
  Fingerprint fp;
  fp.Mix(pool.rules.size());
  for (const RuleCandidate& c : pool.rules) {
    fp.Mix(c.rule.subject_category);
    fp.Mix(c.rule.relation);
    fp.Mix(c.rule.object_category);
    fp.MixAll(c.assertions);
    fp.MixBits(c.subject_entropy.TotalBits());
    fp.MixBits(c.object_entropy.TotalBits());
  }
  fp.Mix(pool.edges.size());
  for (const EdgeCandidate& e : pool.edges) {
    fp.Mix(static_cast<uint64_t>(e.kind));
    fp.Mix(e.head);
    fp.Mix(e.mid);
    fp.Mix(e.tail);
    fp.MixAll(e.tail_facts);
    fp.MixAll(e.timespans);
    fp.MixBits(e.timespan_entropy.TotalBits());
  }
  return fp.value();
}

void ExpectRuleGraphsIdentical(const RuleGraph& a, const RuleGraph& b) {
  ASSERT_EQ(a.num_rules(), b.num_rules());
  ASSERT_EQ(a.num_static_rules(), b.num_static_rules());
  for (RuleId r = 0; r < a.num_rules(); ++r) {
    ASSERT_TRUE(a.rule(r) == b.rule(r)) << "rule " << r;
    ASSERT_EQ(a.support(r), b.support(r)) << "rule " << r;
    ASSERT_EQ(a.static_selected(r), b.static_selected(r)) << "rule " << r;
    ASSERT_EQ(a.recurrent(r), b.recurrent(r)) << "rule " << r;
  }
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (RuleEdgeId e = 0; e < a.num_edges(); ++e) {
    const RuleEdge& ea = a.edge(e);
    const RuleEdge& eb = b.edge(e);
    ASSERT_EQ(ea.kind, eb.kind) << "edge " << e;
    ASSERT_EQ(ea.head, eb.head) << "edge " << e;
    ASSERT_EQ(ea.mid, eb.mid) << "edge " << e;
    ASSERT_EQ(ea.tail, eb.tail) << "edge " << e;
    ASSERT_EQ(ea.support, eb.support) << "edge " << e;
    ASSERT_EQ(ea.timespans, eb.timespans) << "edge " << e;
  }
}

TEST_F(CoreFixture, CandidatePoolMatchesGoldenFingerprint) {
  // Golden pin of candidate generation and of the whole build's
  // description length on the datagen test world. Any change to the scan
  // order, the first-occurrence order or the entropy accumulation shows
  // here bit for bit.
  auto categories =
      CategoryFunction::Build(*train_, TestDetectorOptions().category);
  DetectorOptions opts = TestDetectorOptions();
  const CandidatePool pool =
      CandidateGenerator(*train_, categories, opts).Generate();
  EXPECT_EQ(pool.rules.size(), 2108u);
  // 17,345 edge keys generated; 2,381 reach k_min (3 for chain edges, 5
  // for triadic ones: B = log2 250). The pinned pool is the full
  // 17,345-edge pool filtered by k_min, bit for bit: the bound decides
  // which edges exist, never what a surviving edge holds.
  EXPECT_EQ(pool.num_generated_edges, 17345u);
  EXPECT_EQ(pool.edges.size(), 2381u);
  EXPECT_EQ(PoolFingerprint(pool), 0xb6bff67795fd7bc0ULL);
  EXPECT_EQ(anot_->report().total_bits(), 0x1.6a92656be5731p+15);
}

TEST_F(CoreFixture, RuleGraphIdenticalAcrossThreadCounts) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  options.num_threads = 1;
  AnoT serial = AnoT::Build(*train_, options);
  options.num_threads = 8;
  AnoT parallel = AnoT::Build(*train_, options);

  ExpectRuleGraphsIdentical(serial.rules(), parallel.rules());
  EXPECT_EQ(serial.report().model_bits, parallel.report().model_bits);
  EXPECT_EQ(serial.report().assertion_bits,
            parallel.report().assertion_bits);
  EXPECT_EQ(serial.report().negative_bits, parallel.report().negative_bits);
  EXPECT_EQ(serial.report().explained_fraction,
            parallel.report().explained_fraction);
  EXPECT_EQ(serial.report().associated_fraction,
            parallel.report().associated_fraction);
}

TEST_F(CoreFixture, RefreshMidStreamIdenticalAcrossThreadCounts) {
  // Refresh rebuilds the category function and the rule graph from the
  // *grown* TKG; both rebuild stages shard, so the refreshed model must
  // stay bit-identical across thread counts too.
  auto run = [&](size_t threads) {
    AnoTOptions options;
    options.detector = TestDetectorOptions();
    options.num_threads = threads;
    auto system = std::make_unique<AnoT>(AnoT::Build(*train_, options));
    size_t replayed = 0;
    for (FactId id : split_->val) {
      system->IngestValid(graph_->fact(id));
      if (++replayed >= 300) break;
    }
    system->Refresh();
    return system;
  };
  auto serial = run(1);
  auto parallel = run(8);
  EXPECT_EQ(serial->refresh_count(), parallel->refresh_count());
  EXPECT_EQ(serial->categories().num_categories(),
            parallel->categories().num_categories());
  ExpectRuleGraphsIdentical(serial->rules(), parallel->rules());
  EXPECT_EQ(serial->report().negative_bits, parallel->report().negative_bits);
}

// ---------------------------------------------------------------- Scoring

TEST_F(CoreFixture, ValidFactsScoreLowerThanConceptualAnomalies) {
  InjectorConfig icfg;
  AnomalyInjector injector(icfg);
  EvalStream stream = injector.Inject(*graph_, split_->test);

  std::vector<double> valid_scores, anomaly_scores;
  for (const auto& lf : stream.arrivals) {
    const Scores s = anot_->Score(lf.fact);
    if (lf.label == AnomalyType::kValid) {
      valid_scores.push_back(s.static_score);
    } else if (lf.label == AnomalyType::kConceptual) {
      anomaly_scores.push_back(s.static_score);
    }
  }
  ASSERT_GT(valid_scores.size(), 100u);
  ASSERT_GT(anomaly_scores.size(), 50u);
  const double valid_mean =
      std::accumulate(valid_scores.begin(), valid_scores.end(), 0.0) /
      valid_scores.size();
  const double anomaly_mean =
      std::accumulate(anomaly_scores.begin(), anomaly_scores.end(), 0.0) /
      anomaly_scores.size();
  EXPECT_LT(valid_mean, anomaly_mean * 0.5)
      << "static score fails to separate conceptual errors";
}

TEST_F(CoreFixture, TimeAnomaliesRankAboveValidTemporally) {
  // Realistic online protocol: the model keeps ingesting knowledge it
  // deems valid; we then check the temporal score *ranks* time errors
  // above valid facts better than chance (PR-AUC vs base rate).
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT online = AnoT::Build(*train_, options);
  for (FactId id : split_->val) online.IngestValid(graph_->fact(id));

  InjectorConfig icfg;
  AnomalyInjector injector(icfg);
  EvalStream stream = injector.Inject(*graph_, split_->test);

  std::vector<std::pair<double, int>> scored;  // (score, is_time_error)
  for (const auto& lf : stream.arrivals) {
    const Scores s = online.Score(lf.fact);
    if (lf.label == AnomalyType::kValid) online.IngestValid(lf.fact);
    if (lf.label == AnomalyType::kConceptual) continue;
    scored.push_back({s.temporal_score, lf.label == AnomalyType::kTime});
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  double tp = 0, fp = 0, auc = 0, prev_recall = 0, total_pos = 0;
  for (const auto& [score, pos] : scored) total_pos += pos;
  ASSERT_GT(total_pos, 20);
  for (const auto& [score, pos] : scored) {
    if (pos) ++tp; else ++fp;
    auc += (tp / (tp + fp)) * (tp / total_pos - prev_recall);
    prev_recall = tp / total_pos;
  }
  const double base_rate = total_pos / static_cast<double>(scored.size());
  // Time shifts on *recurrent* facts are intrinsically hard to detect
  // (any shift lands near some plausible precursor), so the aggregate
  // lift is moderate; the chain-pattern subset separates strongly.
  EXPECT_GT(auc, 1.3 * base_rate)
      << "temporal ranking barely better than chance (AUC " << auc
      << " vs base rate " << base_rate << ")";
}

TEST_F(CoreFixture, MissingFactsHaveHigherSupportThanCorruptions) {
  InjectorConfig icfg;
  AnomalyInjector injector(icfg);
  EvalStream stream = injector.Inject(*graph_, split_->test);

  double missing_support = 0.0, corrupted_support = 0.0;
  size_t n_missing = 0, n_corrupted = 0;
  for (const auto& lf : stream.missing_candidates) {
    const Scores s = anot_->Score(lf.fact);
    if (lf.label == AnomalyType::kMissing) {
      missing_support += s.missing_support();
      ++n_missing;
    } else {
      corrupted_support += s.missing_support();
      ++n_corrupted;
    }
  }
  ASSERT_GT(n_missing, 20u);
  EXPECT_GT(missing_support / n_missing,
            corrupted_support / std::max<size_t>(1, n_corrupted))
      << "missing-error support signal inverted";
}

TEST_F(CoreFixture, UnknownEntityGetsMaximalStaticScore) {
  Fact unknown(static_cast<EntityId>(graph_->num_entities() + 5), 0,
               static_cast<EntityId>(graph_->num_entities() + 6), 10);
  const Scores s = anot_->Score(unknown);
  EXPECT_EQ(s.static_support, 0.0);
  EXPECT_GT(s.static_score, 1e6);
  EXPECT_FALSE(s.temporal_evaluated);  // λ gate
}

TEST_F(CoreFixture, EvidenceIsPopulated) {
  // A valid test fact should map to rules and usually find precursors.
  Evidence evidence;
  const Fact& f = graph_->fact(split_->test[split_->test.size() / 2]);
  const Scores s = anot_->Score(f, &evidence);
  if (s.static_support > 0) {
    EXPECT_FALSE(evidence.mapped.empty());
  }
  // Rendering never crashes and mentions the fact's subject.
  Explainer explainer = anot_->MakeExplainer();
  std::string rendered = explainer.RenderEvidence(f, evidence);
  EXPECT_NE(rendered.find(graph_->EntityName(f.subject)),
            std::string::npos);
}

TEST_F(CoreFixture, ScoreIsPureFunction) {
  const Fact& f = graph_->fact(split_->test.front());
  const Scores a = anot_->Score(f);
  const Scores b = anot_->Score(f);
  EXPECT_DOUBLE_EQ(a.static_score, b.static_score);
  EXPECT_DOUBLE_EQ(a.temporal_score, b.temporal_score);
}

// ---------------------------------------------------------------- Updater

TEST_F(CoreFixture, IngestAddsFactAndSupports) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT local = AnoT::Build(*train_, options);
  const size_t facts_before = local.graph().num_facts();

  const Fact& f = graph_->fact(split_->test.front());
  UpdateEffects effects = local.IngestValid(f);
  EXPECT_EQ(effects.facts_ingested, 1u);
  EXPECT_EQ(local.graph().num_facts(), facts_before + 1);
}

TEST_F(CoreFixture, RepeatedNewPatternBecomesRule) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT local = AnoT::Build(*train_, options);

  // A brand-new relation repeatedly used between two known categories.
  const RelationId fresh_rel =
      static_cast<RelationId>(local.graph().num_relations());
  const size_t rules_before = local.rules().num_rules();
  uint32_t new_nodes = 0;
  Timestamp t = local.graph().max_time() + 1;
  for (int i = 0; i < 8; ++i) {
    // Vary entities so this is a pattern, not a single pair.
    EntityId s = static_cast<EntityId>(2 * i);
    EntityId o = static_cast<EntityId>(2 * i + 1);
    UpdateEffects effects =
        local.IngestValid(Fact(s, fresh_rel, o, t + i));
    new_nodes += effects.new_rule_nodes;
  }
  EXPECT_GT(new_nodes, 0u) << "recurring unseen pattern never admitted";
  EXPECT_GT(local.rules().num_rules(), rules_before);
}

TEST_F(CoreFixture, IngestRecordsTimespansOnInstantiatedEdges) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT local = AnoT::Build(*train_, options);

  // Replay real future facts; some must instantiate in-edges.
  uint32_t recorded = 0;
  size_t replayed = 0;
  for (FactId id : split_->val) {
    recorded += local.IngestValid(graph_->fact(id)).timespans_recorded;
    if (++replayed > 400) break;
  }
  EXPECT_GT(recorded, 0u);
}

TEST_F(CoreFixture, RepeatedIdenticalFactWiresChainEdges) {
  // Regression: the chain-edge scan used to skip *every* fact equal to
  // the new arrival, so a recurring identical fact (same s, r, o, t
  // re-reported) never wired chain edges when its pattern was admitted.
  // Only the just-appended instance may be skipped.
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT local = AnoT::Build(*train_, options);

  const RelationId fresh_rel =
      static_cast<RelationId>(local.graph().num_relations());
  const Fact dup(0, fresh_rel, 1, local.graph().max_time() + 1);
  UpdateEffects total;
  for (int i = 0; i < 3; ++i) total.Accumulate(local.IngestValid(dup));
  EXPECT_GT(total.new_rule_nodes, 0u);
  EXPECT_GT(total.new_rule_edges, 0u)
      << "distinct earlier occurrences of an identical fact are real "
         "precursors and must wire chain edges";
}

/// Hand-built world for the scorer identity-vs-equality regressions: the
/// pair (0, 10) holds one prior occurrence of the exact fact under test,
/// the rule graph one atomic rule over it with a self-loop chain edge.
struct RecurrenceWorld {
  TemporalKnowledgeGraph graph;
  CategoryFunction categories;
  RuleGraph rules;
  RuleId rule = kInvalidId;
};

void MakeRecurrenceWorld(RecurrenceWorld* w) {
  // The prior occurrence of the recurring fact, plus sibling pairs that
  // give the entities categories.
  w->graph.AddFact(Fact(0, 0, 10, 100));
  for (EntityId i = 1; i < 4; ++i) {
    w->graph.AddFact(Fact(i, 0, 10 + i, 80 + static_cast<Timestamp>(i)));
  }
  CategoryFunctionOptions copts;
  copts.min_support = 3;
  w->categories = CategoryFunction::Build(w->graph, copts);
  ASSERT_FALSE(w->categories.Categories(0).empty());
  ASSERT_FALSE(w->categories.Categories(10).empty());
  const CategoryId cs = w->categories.Categories(0).front();
  const CategoryId co = w->categories.Categories(10).front();
  w->rule = w->rules.AddRule(AtomicRule{cs, 0, co}, /*static_selected=*/true);
  w->rules.SetSupport(w->rule, 4);
  RuleEdge self_loop;
  self_loop.kind = RuleEdgeKind::kChain;
  self_loop.head = w->rule;
  self_loop.tail = w->rule;
  self_loop.timespans = {0};
  self_loop.support = 1;
  w->rules.AddEdge(self_loop);
}

TEST(ScorerRecurrenceTest, IdenticalRecurringFactCanBeItsOwnWitness) {
  // Regression: the witness scans skipped `g == fact` by *value*, so a
  // re-reported recurring fact — identical to an occurrence already in
  // the graph — could never use that distinct earlier occurrence as a
  // chain witness and was penalized as if the pattern had never been
  // seen. Witness exclusion is by id; an arrival scored before ingestion
  // excludes nothing.
  RecurrenceWorld w;
  ASSERT_NO_FATAL_FAILURE(MakeRecurrenceWorld(&w));
  DetectorOptions dopts;
  dopts.timespan_tolerance = 5;
  Scorer scorer(&w.graph, &w.categories, &w.rules, &dopts);

  const Scores s = scorer.Score(Fact(0, 0, 10, 100));
  EXPECT_GT(s.temporal_support, 0.0)
      << "the identical earlier occurrence must instantiate the self-loop";
  EXPECT_TRUE(s.associated);
  EXPECT_LT(s.temporal_score, 1.0);
}

TEST(ScorerRecurrenceTest, UpdaterTimespanScanExcludesOnlyTheNewInstance) {
  // The updater runs the same witness scan *after* the arrival has been
  // ingested: only the just-added instance may be excluded (by id), while
  // a distinct identical earlier occurrence is a real witness whose
  // timespan must be recorded — and a first occurrence must not witness
  // itself.
  RecurrenceWorld w;
  ASSERT_NO_FATAL_FAILURE(MakeRecurrenceWorld(&w));
  DetectorOptions dopts;
  dopts.timespan_tolerance = 5;
  Updater updater(&w.graph, &w.categories, &w.rules, &dopts);

  // Exact duplicate of the t=100 occurrence: the earlier copy witnesses.
  const UpdateEffects duplicate = updater.Ingest(Fact(0, 0, 10, 100));
  EXPECT_GT(duplicate.timespans_recorded, 0u)
      << "identical recurring fact never records timespans";

  // Fresh pair (1, 10): the newly added instance is the only fact in the
  // pair sequence and must not instantiate the self-loop edge itself.
  const UpdateEffects first = updater.Ingest(Fact(1, 0, 10, 200));
  EXPECT_EQ(first.timespans_recorded, 0u)
      << "a first occurrence must not witness itself";
}

TEST(ScorerRecurrenceTest, ChainWitnessBehindTheScanCapIsHidden) {
  // Facts on the pair timestamped after the tail are skipped, but each
  // still spends a slot of the scan cap: 64 of them hide the earlier
  // chain witness, 63 leave it as the 64th id read.
  for (const size_t late : {size_t{63}, kMaxInstantiationScan}) {
    RecurrenceWorld w;
    ASSERT_NO_FATAL_FAILURE(MakeRecurrenceWorld(&w));
    for (size_t i = 0; i < late; ++i) {
      w.graph.AddFact(Fact(0, 0, 10, 300 + static_cast<Timestamp>(i)));
    }
    DetectorOptions dopts;
    dopts.timespan_tolerance = 5;
    Scorer scorer(&w.graph, &w.categories, &w.rules, &dopts);
    const auto inst = scorer.TryInstantiate(w.rules.edge(0),
                                            Fact(0, 0, 10, 200));
    EXPECT_EQ(inst.has_value(), late < kMaxInstantiationScan)
        << late << " later facts on the pair";
    if (inst.has_value()) {
      EXPECT_EQ(inst->witness, 0u);
      EXPECT_EQ(inst->delta, 100);
    }
  }
}

// ------------------------------------------------------- Chain window

/// The per-edge chain witness scan the shared Scorer::ChainWindow
/// replaced, kept as its reference: one ScanRecentFacts call per edge,
/// matching every pair fact against the head rule's relation and both of
/// its categories.
std::optional<Instantiation> PerEdgeChainScan(
    const TemporalKnowledgeGraph& graph, const CategoryFunction& categories,
    const RuleGraph& rules, const DetectorOptions& opts, const RuleEdge& edge,
    const Fact& fact, FactId exclude) {
  const Timestamp tail_time = AnchorTime(fact, opts.tail_anchor);
  const AtomicRule& head = rules.rule(edge.head);
  const auto has = [&](EntityId e, CategoryId c) {
    const auto& cats = categories.Categories(e);
    return std::binary_search(cats.begin(), cats.end(), c);
  };
  std::optional<Instantiation> best;
  ScanRecentFacts(
      graph, graph.FactsForPair(fact.subject, fact.object), opts.head_anchor,
      tail_time, exclude, [&](FactId id, const Fact& g, Timestamp head_time) {
        if (g.relation != head.relation ||
            !has(g.subject, head.subject_category) ||
            !has(g.object, head.object_category)) {
          return true;
        }
        Instantiation inst{id, tail_time - head_time, 0};
        inst.agreements =
            CountAgreements(edge, inst.delta, opts.timespan_tolerance);
        if (!best.has_value() || inst.agreements > best->agreements) {
          best = inst;
        }
        return best->agreements != edge.timespans.size();
      });
  return best;
}

/// How often each case the window must get right occurred; a test that
/// never meets a case shows nothing about it.
struct WindowCoverage {
  size_t probes = 0;  // (fact, exclusion, chain edge) triples compared
  size_t hits = 0;
  /// An admissible pair fact has the head's relation, but the head's
  /// categories miss C(s) or C(o).
  size_t category_misses = 0;
  /// The witness is a distinct fact equal in value to the excluded one.
  size_t equal_value_witnesses = 0;
  /// Too-late ids spend cap slots, and a head-rule fact lies beyond them.
  size_t cap_hidden = 0;
  /// Maximal agreement was reached with older relation matches unread.
  size_t early_maximal = 0;
  /// The deltas along the capped scan shrink somewhere going back.
  size_t non_monotone = 0;
};

void CountCoverage(const TemporalKnowledgeGraph& graph,
                   const CategoryFunction& categories, const RuleGraph& rules,
                   const DetectorOptions& opts, const RuleEdge& edge,
                   const Fact& fact, FactId exclude,
                   const std::optional<Instantiation>& want,
                   WindowCoverage* cov) {
  const auto* pair = graph.FactsForPair(fact.subject, fact.object);
  if (pair == nullptr) return;
  const Timestamp tail_time = AnchorTime(fact, opts.tail_anchor);
  const AtomicRule& head = rules.rule(edge.head);
  const auto& cs = categories.Categories(fact.subject);
  const auto& co = categories.Categories(fact.object);
  const bool head_categories =
      std::binary_search(cs.begin(), cs.end(), head.subject_category) &&
      std::binary_search(co.begin(), co.end(), head.object_category);
  bool relation_seen = false, too_late_in_cap = false, hidden = false;
  bool past_witness = false, shrinks = false;
  size_t older_matches = 0;
  Timestamp last_delta = std::numeric_limits<Timestamp>::min();
  for (size_t slot = 0; slot < pair->size(); ++slot) {
    const FactId id = (*pair)[pair->size() - 1 - slot];
    if (id == exclude) continue;
    const Fact& g = graph.fact(id);
    const Timestamp head_time = AnchorTime(g, opts.head_anchor);
    const bool in_cap = slot < kMaxInstantiationScan;
    if (head_time > tail_time) {
      too_late_in_cap = too_late_in_cap || in_cap;
      continue;
    }
    const bool relation = g.relation == head.relation;
    if (!in_cap) {
      hidden = hidden || (relation && head_categories);
      continue;
    }
    const Timestamp delta = tail_time - head_time;
    shrinks = shrinks || delta < last_delta;
    last_delta = delta;
    if (!relation) continue;
    relation_seen = true;
    older_matches += past_witness;
    past_witness = past_witness || (want.has_value() && id == want->witness);
  }
  ++cov->probes;
  cov->hits += want.has_value();
  cov->category_misses += relation_seen && !head_categories;
  cov->equal_value_witnesses += want.has_value() && exclude != kInvalidId &&
                                want->witness != exclude &&
                                graph.fact(want->witness) == fact;
  cov->cap_hidden += too_late_in_cap && hidden;
  cov->early_maximal += want.has_value() &&
                        want->agreements == edge.timespans.size() &&
                        older_matches > 0;
  cov->non_monotone += shrinks;
}

/// Scores every graph fact, once as an arrival (nothing excluded) and once
/// as an ingested fact (its own id excluded), against every chain in-edge
/// of its mapped rules. One window is shared by all edges of a (fact,
/// exclusion) pair, as in Score and the updater; each result must equal
/// the per-edge reference scan, and so must the single-edge overload's.
void ExpectWindowMatchesPerEdgeScan(const TemporalKnowledgeGraph& graph,
                                    const CategoryFunction& categories,
                                    const RuleGraph& rules,
                                    const DetectorOptions& opts,
                                    WindowCoverage* cov) {
  Scorer scorer(&graph, &categories, &rules, &opts);
  for (FactId f = 0; f < graph.num_facts(); ++f) {
    const Fact& fact = graph.fact(f);
    for (const FactId exclude : {kInvalidId, f}) {
      Scorer::ChainWindow window;
      for (RuleId r : scorer.MapToRules(fact)) {
        for (RuleEdgeId e : rules.InEdges(r)) {
          const RuleEdge& edge = rules.edge(e);
          if (edge.kind != RuleEdgeKind::kChain) continue;
          const auto want = PerEdgeChainScan(graph, categories, rules, opts,
                                             edge, fact, exclude);
          const auto shared =
              scorer.TryInstantiate(edge, fact, exclude, &window);
          const auto single = scorer.TryInstantiate(edge, fact, exclude);
          for (const auto* got : {&shared, &single}) {
            ASSERT_EQ(got->has_value(), want.has_value())
                << "fact " << f << " edge " << e << " exclude " << exclude;
            if (!want.has_value()) continue;
            ASSERT_EQ((*got)->witness, want->witness)
                << "fact " << f << " edge " << e << " exclude " << exclude;
            ASSERT_EQ((*got)->delta, want->delta);
            ASSERT_EQ((*got)->agreements, want->agreements);
          }
          CountCoverage(graph, categories, rules, opts, edge, fact, exclude,
                        want, cov);
        }
      }
    }
  }
}

/// A seeded world dense enough to meet every case of WindowCoverage. Ten
/// (s, o) pairs carry about 250 facts each. Entity e belongs to group
/// e / 4, whose subjects use relations {2g, 2g + 1}, so categories differ
/// between groups. Every eighth pair fact is repeated in value under a
/// new id. With `durations` facts run up to 30 ticks, so end-anchored
/// deltas are not monotone along the start-sorted pair sequence. The rule
/// graph holds every (C_s, r, C_o) rule and three chain in-edges per rule
/// with 1-3 timespans; half the heads keep the tail's categories.
struct DenseChainWorld {
  TemporalKnowledgeGraph graph;
  CategoryFunction categories;
  RuleGraph rules;
};

void MakeDenseChainWorld(uint64_t seed, bool durations, DenseChainWorld* w) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  constexpr EntityId kEntities = 12;
  constexpr RelationId kRelations = 6;
  const auto group_relation = [&](EntityId s) {
    return static_cast<RelationId>(2 * (s / 4) + uniform(0, 1));
  };
  const auto add = [&](EntityId s, RelationId r, EntityId o, Timestamp t) {
    const Timestamp end = durations ? t + uniform(0, 30) : t;
    w->graph.AddFact(Fact(s, r, o, t, end));
  };
  // Background facts give every entity its group's tokens.
  for (EntityId e = 0; e < kEntities; ++e) {
    for (RelationId r = 2 * (e / 4); r < 2 * (e / 4) + 2; ++r) {
      add(e, r, (e + 1 + r) % kEntities, uniform(0, 399));
    }
  }
  std::vector<std::pair<EntityId, EntityId>> pairs;
  while (pairs.size() < 10) {
    const auto s = static_cast<EntityId>(uniform(0, kEntities - 1));
    const auto o = static_cast<EntityId>(uniform(0, kEntities - 1));
    if (s != o) pairs.emplace_back(s, o);
  }
  for (int i = 0; i < 2500; ++i) {
    const auto [s, o] = pairs[static_cast<size_t>(uniform(0, 9))];
    add(s, group_relation(s), o, uniform(0, 399));
    if (i % 8 == 0) {
      // A copy: AddFact may reallocate the storage a reference points into.
      const Fact last =
          w->graph.fact(static_cast<FactId>(w->graph.num_facts() - 1));
      w->graph.AddFact(last);
    }
  }
  CategoryFunctionOptions copts;
  copts.min_support = 3;
  w->categories = CategoryFunction::Build(w->graph, copts);
  const auto ncat = static_cast<CategoryId>(w->categories.num_categories());
  ASSERT_GE(ncat, 2u);
  for (CategoryId cs = 0; cs < ncat; ++cs) {
    for (RelationId r = 0; r < kRelations; ++r) {
      for (CategoryId co = 0; co < ncat; ++co) {
        w->rules.SetSupport(w->rules.AddRule(AtomicRule{cs, r, co}, true), 4);
      }
    }
  }
  const auto nrules = static_cast<RuleId>(w->rules.num_rules());
  for (RuleId tail = 0; tail < nrules; ++tail) {
    for (int k = 0; k < 3; ++k) {
      const AtomicRule& t = w->rules.rule(tail);
      const auto r = static_cast<RelationId>(uniform(0, kRelations - 1));
      RuleEdge edge;
      edge.kind = RuleEdgeKind::kChain;
      const AtomicRule same_categories{t.subject_category, r,
                                       t.object_category};
      edge.head = uniform(0, 1) == 0
                      ? *w->rules.FindRule(same_categories)
                      : static_cast<RuleId>(uniform(0, nrules - 1));
      edge.tail = tail;
      for (int64_t n = uniform(1, 3); n > 0; --n) {
        edge.timespans.push_back(uniform(0, 40));
      }
      edge.support = 1;
      w->rules.AddEdge(edge);
    }
  }
}

void ExpectCoversEveryCase(const WindowCoverage& cov, bool durations) {
  EXPECT_GT(cov.hits, 1000u) << cov.probes << " probes";
  EXPECT_LT(cov.hits, cov.probes);
  EXPECT_GT(cov.category_misses, 1000u);
  EXPECT_GT(cov.cap_hidden, 1000u);
  EXPECT_GT(cov.early_maximal, 1000u);
  if (durations) {
    // A value-equal copy ends after its twin starts unless it lasts 0
    // ticks, so end-anchored exclusion cases are rarer.
    EXPECT_GT(cov.equal_value_witnesses, 0u);
    EXPECT_GT(cov.non_monotone, 1000u);
  } else {
    EXPECT_GT(cov.equal_value_witnesses, 100u);
    EXPECT_EQ(cov.non_monotone, 0u);
  }
}

TEST(ChainWindowTest, MatchesPerEdgeScanOnPointGraphs) {
  for (const uint64_t seed : {1u, 2u}) {
    DenseChainWorld w;
    ASSERT_NO_FATAL_FAILURE(MakeDenseChainWorld(seed, false, &w));
    DetectorOptions dopts;
    dopts.timespan_tolerance = 5;
    WindowCoverage cov;
    ASSERT_NO_FATAL_FAILURE(ExpectWindowMatchesPerEdgeScan(
        w.graph, w.categories, w.rules, dopts, &cov));
    ExpectCoversEveryCase(cov, false);
  }
}

TEST(ChainWindowTest, MatchesPerEdgeScanOnEndAnchoredDurationGraphs) {
  for (const uint64_t seed : {3u, 4u}) {
    DenseChainWorld w;
    ASSERT_NO_FATAL_FAILURE(MakeDenseChainWorld(seed, true, &w));
    DetectorOptions dopts;
    dopts.head_anchor = TimeAnchor::kEnd;
    dopts.tail_anchor = TimeAnchor::kStart;
    dopts.timespan_tolerance = 5;
    WindowCoverage cov;
    ASSERT_NO_FATAL_FAILURE(ExpectWindowMatchesPerEdgeScan(
        w.graph, w.categories, w.rules, dopts, &cov));
    ExpectCoversEveryCase(cov, true);
  }
}

TEST_F(CoreFixture, ChainWindowMatchesPerEdgeScanOnTheBuiltRuleGraph) {
  WindowCoverage cov;
  ASSERT_NO_FATAL_FAILURE(ExpectWindowMatchesPerEdgeScan(
      anot_->graph(), anot_->categories(), anot_->rules(),
      TestDetectorOptions(), &cov));
  EXPECT_GT(cov.hits, 1000u) << cov.probes << " probes";
}

/// The ids ScanRecentFacts visits over the pair (0, 1) of `g`, in order.
std::vector<FactId> PairScan(const TemporalKnowledgeGraph& g,
                             Timestamp not_after, FactId exclude) {
  std::vector<FactId> visited;
  ScanRecentFacts(g, g.FactsForPair(0, 1), TimeAnchor::kStart, not_after,
                  exclude, [&](FactId id, const Fact& f, Timestamp t) {
                    EXPECT_EQ(t, f.time);
                    visited.push_back(id);
                    return true;
                  });
  return visited;
}

constexpr Timestamp kNever = std::numeric_limits<Timestamp>::max();

TEST(WitnessScanTest, VisitsNewestFirst) {
  TemporalKnowledgeGraph g;
  for (Timestamp t : {30, 10, 20}) g.AddFact(Fact(0, 0, 1, t));
  EXPECT_EQ(PairScan(g, kNever, kInvalidId), (std::vector<FactId>{0, 2, 1}));
}

TEST(WitnessScanTest, StopsWhenVisitReturnsFalse) {
  TemporalKnowledgeGraph g;
  for (Timestamp t = 1; t <= 5; ++t) g.AddFact(Fact(0, 0, 1, t));
  std::vector<FactId> visited;
  ScanRecentFacts(g, g.FactsForPair(0, 1), TimeAnchor::kStart, kNever,
                  kInvalidId, [&](FactId id, const Fact&, Timestamp) {
                    visited.push_back(id);
                    return visited.size() < 2;
                  });
  EXPECT_EQ(visited, (std::vector<FactId>{4, 3}));
}

TEST(WitnessScanTest, NullSequenceVisitsNothing) {
  TemporalKnowledgeGraph g;
  g.AddFact(Fact(0, 0, 1, 1));
  ASSERT_EQ(g.FactsForPair(1, 0), nullptr);
  size_t visits = 0;
  ScanRecentFacts(g, g.FactsForPair(1, 0), TimeAnchor::kStart, kNever,
                  kInvalidId, [&](FactId, const Fact&, Timestamp) {
                    ++visits;
                    return true;
                  });
  EXPECT_EQ(visits, 0u);
}

TEST(WitnessScanTest, ExcludesByIdNotByValue) {
  TemporalKnowledgeGraph g;
  const FactId first = g.AddFact(Fact(0, 0, 1, 7));
  const FactId again = g.AddFact(Fact(0, 0, 1, 7));
  ASSERT_TRUE(g.fact(first) == g.fact(again));
  EXPECT_EQ(PairScan(g, kNever, again), (std::vector<FactId>{first}));
}

TEST(WitnessScanTest, SkipsFactsAfterTheAnchorTime) {
  TemporalKnowledgeGraph g;
  for (Timestamp t = 1; t <= 4; ++t) g.AddFact(Fact(0, 0, 1, t));
  EXPECT_EQ(PairScan(g, 2, kInvalidId), (std::vector<FactId>{1, 0}));
}

TEST(WitnessScanTest, HonoursASubRangeEnd) {
  TemporalKnowledgeGraph g;
  for (Timestamp t = 1; t <= 5; ++t) g.AddFact(Fact(0, 0, 1, t));
  const std::vector<FactId>& seq = *g.FactsForPair(0, 1);
  std::vector<FactId> visited;
  ScanRecentFacts(g, seq.begin(), seq.begin() + 3, TimeAnchor::kStart, kNever,
                  kInvalidId, [&](FactId id, const Fact&, Timestamp) {
                    visited.push_back(id);
                    return true;
                  });
  EXPECT_EQ(visited, (std::vector<FactId>{2, 1, 0}));
}

TEST(WitnessScanTest, SkippedIdsSpendTheCap) {
  // An admissible fact at t = 0 behind `skipped` newer ids, all after
  // not_after = 50 or, in the mixed case, one of them excluded by id.
  for (const bool exclude_one : {false, true}) {
    for (const size_t skipped : {size_t{63}, kMaxInstantiationScan}) {
      TemporalKnowledgeGraph g;
      const FactId witness = g.AddFact(Fact(0, 0, 1, 0));
      FactId excluded = kInvalidId;
      if (exclude_one) excluded = g.AddFact(Fact(0, 0, 1, 10));
      while (g.num_facts() < skipped + 1) {
        g.AddFact(Fact(0, 0, 1, 100 + static_cast<Timestamp>(g.num_facts())));
      }
      const std::vector<FactId> want =
          skipped < kMaxInstantiationScan ? std::vector<FactId>{witness}
                                          : std::vector<FactId>{};
      EXPECT_EQ(PairScan(g, 50, excluded), want)
          << skipped << " skipped ids, exclude_one " << exclude_one;
    }
  }
}

// Linear reference for CountAgreements: |span - delta| <= L for each
// preserved span, with the difference taken in 128 bits so spans and
// deltas at the Timestamp limits cannot overflow it.
uint32_t LinearAgreements(const RuleEdge& edge, Timestamp delta,
                          Timestamp tolerance) {
  uint32_t agree = 0;
  for (Timestamp span : edge.timespans) {
    const __int128 gap = static_cast<__int128>(span) - delta;
    if ((gap < 0 ? -gap : gap) <= tolerance) ++agree;
  }
  return agree;
}

TEST(CountAgreementsTest, MatchesLinearCountOnRandomSpanLists) {
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  std::mt19937_64 rng(515);
  // A value 0-59 ticks inside one of three regions: around zero, or next
  // to either Timestamp limit. The narrow range makes duplicates common.
  auto near = [&](int region) -> Timestamp {
    const Timestamp off = static_cast<Timestamp>(rng() % 60);
    if (region == 1) return kMax - off;
    if (region == 2) return kMin + off;
    return off - 30;
  };
  size_t nonzero = 0;
  size_t at_window_edge = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const int region = trial % 3;
    RuleEdge edge;
    const size_t n = rng() % 10;  // 0 keeps empty lists in the mix
    for (size_t i = 0; i < n; ++i) {
      edge.timespans.push_back(
          near(rng() % 8 == 0 ? static_cast<int>(rng() % 3) : region));
    }
    std::sort(edge.timespans.begin(), edge.timespans.end());
    const Timestamp tolerances[] = {0,    0,        1,
                                    static_cast<Timestamp>(rng() % 30),
                                    kMax, kMax - 1, kMax / 2,
                                    static_cast<Timestamp>(rng() >> 1)};
    const Timestamp tolerance = tolerances[rng() % std::size(tolerances)];
    Timestamp delta = near(region);
    if (!edge.timespans.empty() && rng() % 2 == 0) {
      // A span exactly ±L away, when that delta is representable.
      const __int128 edge_delta =
          static_cast<__int128>(edge.timespans[rng() % n]) +
          (rng() % 2 == 0 ? tolerance : -static_cast<__int128>(tolerance));
      if (edge_delta >= kMin && edge_delta <= kMax) {
        delta = static_cast<Timestamp>(edge_delta);
        ++at_window_edge;
      }
    }
    const uint32_t want = LinearAgreements(edge, delta, tolerance);
    ASSERT_EQ(CountAgreements(edge, delta, tolerance), want)
        << "trial " << trial << " delta " << delta << " L " << tolerance;
    nonzero += want > 0 ? 1 : 0;
  }
  // Vacuity guards: both outcomes and the exact window edges occur.
  EXPECT_GT(nonzero, 2000u);
  EXPECT_LT(nonzero, 18000u);
  EXPECT_GT(at_window_edge, 2000u);
}

TEST(ScorerAssociationTest, AssociatedFlagSurvivesVisitedSkip) {
  // An in-edge consumed as a *recursive* child of an earlier mapped
  // rule's walk is skipped by the visited filter when its own depth-0
  // turn comes. The association flag must still reflect its successful
  // instantiation: the scorer now records each edge's single
  // TryInstantiate outcome during the walk instead of re-instantiating
  // every in-edge in a second pass (which ignored `visited` and thereby
  // caught this case — the cheap replacement must not regress it).
  TemporalKnowledgeGraph g;
  // Token Out(0) for subjects {0,1,2,3}; objects {20..23} carry In(0).
  for (EntityId i = 0; i < 4; ++i) g.AddFact(Fact(i, 0, 20 + i, 10));
  // Token Out(1) for subjects {0,4,5,6}: low member overlap with Out(0)
  // keeps the two combinations from aggregating into one category.
  g.AddFact(Fact(0, 1, 30, 10));
  for (EntityId i = 4; i < 7; ++i) g.AddFact(Fact(i, 1, 20 + i, 10));
  // The witness: a relation-0 fact on pair (0, 10) just before the probe.
  g.AddFact(Fact(0, 0, 10, 99));

  CategoryFunctionOptions copts;
  copts.min_support = 3;
  auto categories = CategoryFunction::Build(g, copts);
  // Entity 0's two categories, keyed by their defining token.
  CategoryId ca = kInvalidId, cb = kInvalidId;
  for (CategoryId c : categories.Categories(0)) {
    const auto& tokens = categories.Combination(c);
    if (std::find(tokens.begin(), tokens.end(), OutRelationToken(0)) !=
        tokens.end()) {
      ca = c;
    }
    if (std::find(tokens.begin(), tokens.end(), OutRelationToken(1)) !=
        tokens.end()) {
      cb = c;
    }
  }
  ASSERT_NE(ca, kInvalidId);
  ASSERT_NE(cb, kInvalidId);
  ASSERT_NE(ca, cb);
  ASSERT_FALSE(categories.Categories(10).empty());
  const CategoryId cc = categories.Categories(10).front();

  RuleGraph rules;
  const RuleId r1 = rules.AddRule(AtomicRule{ca, 1, cc}, true);
  const RuleId r2 = rules.AddRule(AtomicRule{cb, 1, cc}, true);
  const RuleId head = rules.AddRule(AtomicRule{ca, 0, cc}, true);
  rules.SetSupport(r1, 3);
  rules.SetSupport(r2, 3);
  rules.SetSupport(head, 3);
  // Walk order: r1 (lowest id) is processed first; its in-edge fails to
  // instantiate (no prior relation-1 fact on the pair) and recursion
  // consumes X at depth 1 — so X is already visited when r2's depth-0
  // turn reaches it.
  RuleEdge e1;
  e1.kind = RuleEdgeKind::kChain;
  e1.head = r2;
  e1.tail = r1;
  e1.timespans = {1};
  e1.support = 1;
  rules.AddEdge(e1);
  RuleEdge x;
  x.kind = RuleEdgeKind::kChain;
  x.head = head;
  x.tail = r2;
  x.timespans = {1};
  x.support = 1;
  rules.AddEdge(x);

  DetectorOptions dopts;
  dopts.timespan_tolerance = 5;
  Scorer scorer(&g, &categories, &rules, &dopts);
  const Scores s = scorer.Score(Fact(0, 1, 10, 100));
  EXPECT_GT(s.temporal_support, 0.0);
  EXPECT_TRUE(s.associated)
      << "in-edge instantiated at recursion depth 1 and visited-skipped "
         "at depth 0 must still set the association flag";
}

TEST(UpdaterDurationTest, EndAnchoredChainScanCoversFullWindow) {
  // Regression: the chain-edge scan `break`s at the first pair whose head
  // gap exceeds the tolerance. The pair sequence is sorted by *start*
  // time, so with an end-anchored head on a duration TKG the gap is not
  // monotone: a long-running earlier fact can end nearer the tail than a
  // later short one, and the break skipped it.
  TemporalKnowledgeGraph g;
  // Pair (0, 10): a long-runner starting early but ending near t=120, and
  // a later short fact ending far from it. Sorted by start time the short
  // fact is scanned first and is out of tolerance.
  g.AddFact(Fact(0, 0, 10, 90, 118));   // end within tolerance of 120
  g.AddFact(Fact(0, 0, 10, 100, 100));  // end 20 ticks before 120
  // Category support: three more subjects/objects sharing relation 0.
  for (EntityId i = 1; i < 4; ++i) {
    g.AddFact(Fact(i, 0, 10 + i, 80 + static_cast<Timestamp>(i),
                   80 + static_cast<Timestamp>(i)));
  }

  CategoryFunctionOptions copts;
  copts.min_support = 3;
  auto categories = CategoryFunction::Build(g, copts);
  ASSERT_FALSE(categories.Categories(0).empty());
  ASSERT_FALSE(categories.Categories(10).empty());
  const CategoryId cs = categories.Categories(0).front();
  const CategoryId co = categories.Categories(10).front();

  RuleGraph rules;
  const RuleId head = rules.AddRule(AtomicRule{cs, 0, co},
                                    /*static_selected=*/true);
  rules.SetSupport(head, 5);

  DetectorOptions dopts;
  dopts.head_anchor = TimeAnchor::kEnd;
  dopts.tail_anchor = TimeAnchor::kStart;
  dopts.timespan_tolerance = 5;
  Updater updater(&g, &categories, &rules, &dopts);

  // Two support-building ingests on sibling pairs, then the admitting
  // ingest on (0, 10) whose chain scan must reach past the short fact to
  // the long-runner (end 118, gap 2 <= 5) and wire an edge to `head`.
  const RelationId fresh_rel = 1;
  updater.Ingest(Fact(1, fresh_rel, 11, 119));
  updater.Ingest(Fact(2, fresh_rel, 12, 119));
  const UpdateEffects effects = updater.Ingest(Fact(0, fresh_rel, 10, 120));
  EXPECT_GT(effects.new_rule_nodes, 0u);
  EXPECT_GT(effects.new_rule_edges, 0u)
      << "end-anchored scan stopped at the first out-of-tolerance start";
}

/// What one seeded stream grew: the fingerprint of the rule graph and the
/// updater state, and how many rule-admitting ingests met an in-tolerance
/// pair fact behind an out-of-tolerance one along the newest-first scan.
struct StreamGrowth {
  uint64_t fingerprint = 0;
  uint32_t admitting_ingests = 0;
  uint32_t late_in_tolerance = 0;
};

/// Ingests a seeded stream through the Updater and fingerprints the grown
/// rule graph (every rule's key, support and static flag; every edge's
/// kind, endpoints, timespans and support), the pending-rule count and
/// the summed UpdateEffects. Entity e belongs to group e / 4, whose
/// subjects use relations {2g, 2g + 1}. The initial rule graph holds
/// every (C_s, r, C_o) rule of an even relation and two chain in-edges
/// per rule, so the stream's odd-relation patterns are admitted online
/// and wired. One arrival in 20 takes a random relation, which can grow
/// the category function. With `durations` facts run up to 30 ticks and
/// the head anchors at the end.
StreamGrowth GrowRuleGraphFromStream(uint64_t seed, bool durations) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  constexpr EntityId kEntities = 16;
  constexpr RelationId kRelations = 8;
  constexpr Timestamp kTolerance = 5;
  const auto group_relation = [&](EntityId s) {
    return static_cast<RelationId>(2 * (s / 4) + uniform(0, 1));
  };
  const auto make = [&](EntityId s, RelationId r, EntityId o, Timestamp t) {
    return Fact(s, r, o, t, durations ? t + uniform(0, 30) : t);
  };
  TemporalKnowledgeGraph graph;
  for (EntityId e = 0; e < kEntities; ++e) {
    for (RelationId r = 2 * (e / 4); r < 2 * (e / 4) + 2; ++r) {
      graph.AddFact(make(e, r, (e + 1 + r) % kEntities, uniform(0, 199)));
    }
  }
  std::vector<std::pair<EntityId, EntityId>> pairs;
  while (pairs.size() < 8) {
    const auto s = static_cast<EntityId>(uniform(0, kEntities - 1));
    const auto o = static_cast<EntityId>(uniform(0, kEntities - 1));
    if (s != o) pairs.emplace_back(s, o);
  }
  for (int i = 0; i < 200; ++i) {
    const auto [s, o] = pairs[static_cast<size_t>(uniform(0, 7))];
    graph.AddFact(make(s, group_relation(s), o, uniform(0, 199)));
  }
  CategoryFunctionOptions copts;
  copts.min_support = 3;
  CategoryFunction categories = CategoryFunction::Build(graph, copts);
  const auto ncat = static_cast<CategoryId>(categories.num_categories());

  RuleGraph rules;
  for (CategoryId cs = 0; cs < ncat; ++cs) {
    for (RelationId r = 0; r < kRelations; r += 2) {
      for (CategoryId co = 0; co < ncat; ++co) {
        rules.SetSupport(rules.AddRule(AtomicRule{cs, r, co}, true), 4);
      }
    }
  }
  const auto initial_rules = static_cast<RuleId>(rules.num_rules());
  for (RuleId tail = 0; tail < initial_rules; ++tail) {
    for (int k = 0; k < 2; ++k) {
      RuleEdge edge;
      edge.kind = RuleEdgeKind::kChain;
      edge.head = static_cast<RuleId>(uniform(0, initial_rules - 1));
      edge.tail = tail;
      edge.timespans = {uniform(0, 2 * kTolerance)};
      edge.support = 1;
      rules.AddEdge(edge);
    }
  }

  DetectorOptions dopts;
  dopts.timespan_tolerance = kTolerance;
  if (durations) dopts.head_anchor = TimeAnchor::kEnd;
  Updater updater(&graph, &categories, &rules, &dopts);
  StreamGrowth out;
  UpdateEffects total;
  for (int i = 0; i < 600; ++i) {
    const auto [s, o] = pairs[static_cast<size_t>(uniform(0, 7))];
    const RelationId r =
        uniform(0, 19) == 0
            ? static_cast<RelationId>(uniform(0, kRelations - 1))
            : group_relation(s);
    const Fact fact = make(s, r, o, 200 + i / 2 + uniform(0, 3));
    const UpdateEffects effects = updater.Ingest(fact);
    total.Accumulate(effects);
    if (effects.new_rule_nodes == 0) continue;
    ++out.admitting_ingests;
    // The pair history as the ingest read it, the new fact excluded.
    const Timestamp tail_time = AnchorTime(fact, dopts.tail_anchor);
    bool beyond = false;
    bool late = false;
    ScanRecentFacts(graph, graph.FactsForPair(s, o), dopts.head_anchor,
                    tail_time, static_cast<FactId>(graph.num_facts() - 1),
                    [&](FactId, const Fact&, Timestamp head_time) {
                      const bool within = tail_time - head_time <= kTolerance;
                      late = late || (beyond && within);
                      beyond = beyond || !within;
                      return true;
                    });
    out.late_in_tolerance += late;
  }
  EXPECT_TRUE(updater.Validate().ok());
  EXPECT_TRUE(rules.Validate().ok());

  Fingerprint fp;
  fp.Mix(rules.num_rules());
  for (RuleId r = 0; r < rules.num_rules(); ++r) {
    fp.Mix(rules.rule(r).subject_category);
    fp.Mix(rules.rule(r).relation);
    fp.Mix(rules.rule(r).object_category);
    fp.Mix(rules.support(r));
    fp.Mix(rules.static_selected(r));
  }
  fp.Mix(rules.num_edges());
  for (RuleEdgeId e = 0; e < rules.num_edges(); ++e) {
    const RuleEdge& edge = rules.edge(e);
    fp.Mix(static_cast<uint64_t>(edge.kind));
    fp.Mix(edge.head);
    fp.Mix(edge.mid);
    fp.Mix(edge.tail);
    fp.Mix(edge.timespans.size());
    for (Timestamp t : edge.timespans) fp.Mix(static_cast<uint64_t>(t));
    fp.Mix(edge.support);
  }
  fp.Mix(updater.pending_rule_count());
  fp.Mix(total.new_entity_categories);
  fp.Mix(total.new_rule_nodes);
  fp.Mix(total.new_rule_edges);
  fp.Mix(total.timespans_recorded);
  fp.Mix(total.facts_ingested);
  out.fingerprint = fp.value();
  return out;
}

// Golden pins of online rule-graph growth (Alg. 3): admissions, chain
// wiring, timespan recording and category growth, bit for bit. On the
// point world (76 admitting ingests) the head gap grows along the scan;
// on the end-anchored duration world 28 of 63 admitting ingests meet an
// in-tolerance pair fact behind an out-of-tolerance one, which the chain
// wiring must still reach.
TEST(UpdaterGoldenTest, StreamGrownRuleGraphOnPoints) {
  const StreamGrowth grown = GrowRuleGraphFromStream(5, false);
  EXPECT_GT(grown.admitting_ingests, 0u);
  EXPECT_EQ(grown.late_in_tolerance, 0u) << "point gaps are monotone";
  EXPECT_EQ(grown.fingerprint, 0x086b8652f78cdab9ULL);
}

TEST(UpdaterGoldenTest, StreamGrownRuleGraphOnEndAnchoredDurations) {
  const StreamGrowth grown = GrowRuleGraphFromStream(6, true);
  EXPECT_GT(grown.late_in_tolerance, 0u)
      << "no admitting ingest met an in-tolerance fact behind an "
         "out-of-tolerance one";
  EXPECT_EQ(grown.fingerprint, 0x85b0f26cf68cea2aULL);
}

TEST_F(CoreFixture, PendingRuleTableStaysBounded) {
  // A hostile stream minting fresh, never-repeating patterns must not grow
  // the pending-candidate table without bound. Each arrival's fresh
  // relation opens |C(s)|·|C(o)| entries and gives both entities a new
  // singleton category, so the table fills after about a thousand
  // arrivals; past that, every arrival must evict as many entries as it
  // opens, and the eviction count must show it.
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT local = AnoT::Build(*train_, options);

  const RelationId base_rel =
      static_cast<RelationId>(local.graph().num_relations());
  const Timestamp t0 = local.graph().max_time() + 1;
  constexpr uint32_t kMaxArrivals = 20000;
  constexpr uint32_t kArrivalsAtCap = 100;
  uint32_t at_cap = 0;
  uint64_t evictions = 0;
  for (uint32_t i = 0; i < kMaxArrivals && at_cap < kArrivalsAtCap; ++i) {
    const bool full =
        local.updater().pending_rule_count() == Updater::kMaxPendingRules;
    const EntityId s = static_cast<EntityId>((2 * i) % 200);
    const EntityId o = static_cast<EntityId>((2 * i + 1) % 200);
    local.IngestValid(Fact(s, base_rel + i, o, t0 + i));
    const size_t pending = local.updater().pending_rule_count();
    ASSERT_LE(pending, Updater::kMaxPendingRules) << "arrival " << i;
    const uint64_t now = local.updater().pending_evictions();
    if (full) {
      EXPECT_GT(now, evictions) << "arrival " << i << " at the cap";
    } else if (at_cap == 0 && pending < Updater::kMaxPendingRules) {
      EXPECT_EQ(now, 0u) << "arrival " << i << " below the cap";
    }
    evictions = now;
    if (pending == Updater::kMaxPendingRules) ++at_cap;
  }
  EXPECT_EQ(at_cap, kArrivalsAtCap) << "the table never reached its cap";
  EXPECT_EQ(local.updater().pending_rule_count(), Updater::kMaxPendingRules);
}

// Golden pin of the pending table's touch and eviction order. Fresh
// relations fill the table and keep it evicting; eleven recurring patterns
// come back at fixed periods, some well inside the eviction horizon (about
// 515 arrivals here) and some just beyond it. Whether a recurring pattern
// reaches admission support depends on which entries each touch keeps and
// each eviction drops. The checkpoint's rule section holds every admitted
// rule and its pending section the table in LRU order, so a hash of those
// two payloads pins both orders and no other state.
TEST_F(CoreFixture, PendingRuleLruOrderGolden) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT local = AnoT::Build(*train_, options);

  const RelationId base_rel =
      static_cast<RelationId>(local.graph().num_relations());
  const Timestamp t0 = local.graph().max_time() + 1;
  constexpr uint32_t kFreshArrivals = 3000;
  constexpr uint32_t kPeriods[] = {100, 300, 460, 480, 490, 500,
                                   510, 520, 530, 540, 600};
  constexpr uint32_t kRecurring = std::size(kPeriods);
  const RelationId recurring_rel = base_rel + kFreshArrivals;
  bool reached_cap = false;
  uint32_t recurring_admissions = 0;
  for (uint32_t i = 0; i < kFreshArrivals; ++i) {
    const EntityId s = static_cast<EntityId>((2 * i) % 200);
    const EntityId o = static_cast<EntityId>((2 * i + 1) % 200);
    local.IngestValid(Fact(s, base_rel + i, o, t0 + i));
    // Recurring pattern k joins entities the fresh stream never touches.
    for (uint32_t k = 0; k < kRecurring; ++k) {
      if (i % kPeriods[k] != k) continue;
      const auto rs = static_cast<EntityId>(200 + 2 * k);
      recurring_admissions +=
          local.IngestValid(Fact(rs, recurring_rel + k, rs + 1, t0 + i))
              .new_rule_nodes;
    }
    reached_cap = reached_cap || local.updater().pending_rule_count() ==
                                     Updater::kMaxPendingRules;
  }
  EXPECT_TRUE(reached_cap) << "the table never reached its cap";
  EXPECT_GT(recurring_admissions, 0u) << "no recurring pattern was admitted";

  const std::string path =
      (std::filesystem::temp_directory_path() / "core_test_lru_golden.ckpt")
          .string();
  ASSERT_TRUE(local.SaveCheckpoint(path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  std::filesystem::remove(path);
  // Walk the section framing (io/checkpoint.h) and keep the rules (4) and
  // updater (7) payloads.
  std::string pinned;
  for (size_t off = 8 + 4 + 4; off + 12 <= bytes.size();) {
    uint32_t id = 0;
    uint64_t len = 0;
    std::memcpy(&id, bytes.data() + off, sizeof id);
    std::memcpy(&len, bytes.data() + off + 4, sizeof len);
    if (id == 4 || id == 7) pinned.append(bytes, off + 12, len);
    off += 12 + static_cast<size_t>(len);
  }
  EXPECT_EQ(Checkpoint::Checksum(pinned.data(), pinned.size()),
            0x238954bf6fec121dULL);
}

TEST_F(CoreFixture, UpdaterImprovesScoresOnNewPatterns) {
  // Without the updater the fresh relation stays maximally anomalous;
  // with it the pattern is learned.
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT local = AnoT::Build(*train_, options);
  const RelationId fresh_rel =
      static_cast<RelationId>(local.graph().num_relations());
  Timestamp t = local.graph().max_time() + 1;
  Fact probe(0, fresh_rel, 1, t + 50);
  const double score_before = local.Score(probe).static_score;
  for (int i = 0; i < 10; ++i) {
    local.IngestValid(Fact(static_cast<EntityId>(2 * i), fresh_rel,
                           static_cast<EntityId>(2 * i + 1), t + i));
  }
  const double score_after = local.Score(probe).static_score;
  EXPECT_LT(score_after, score_before);
}

// ---------------------------------------------------------------- Monitor

/// A build report holding only what a monitor reads: the budget and
/// fixed universes U1 = 1e8, U2 = 1e3.
BuildReport MonitorBudget(double negative_bits) {
  BuildReport report;
  report.negative_bits = negative_bits;
  report.tier1_universe = 1e8;
  report.tier2_universe = 1e3;
  return report;
}

TEST(MonitorTest, RefreshFiresWhenBudgetExceeded) {
  Monitor monitor(MonitorBudget(/*negative_bits=*/100.0));
  EXPECT_FALSE(monitor.ShouldRefresh());
  // Stream fully unexplained facts until the budget is blown.
  Timestamp t = 0;
  while (!monitor.ShouldRefresh() && t < 1000) {
    for (int i = 0; i < 5; ++i) monitor.Observe(t, false, false);
    ++t;
  }
  EXPECT_TRUE(monitor.ShouldRefresh());
  EXPECT_LT(t, 1000) << "monitor never fired";
}

TEST(MonitorTest, WellExplainedStreamDoesNotFire) {
  Monitor monitor(MonitorBudget(100.0));
  for (Timestamp t = 0; t < 50; ++t) {
    for (int i = 0; i < 5; ++i) monitor.Observe(t, true, true);
  }
  monitor.Flush();
  EXPECT_DOUBLE_EQ(monitor.online_negative_bits(), 0.0);
  EXPECT_FALSE(monitor.ShouldRefresh());
}

TEST(MonitorTest, ShouldRefreshPricesThePendingOpenBucket) {
  // Facts stream within a single timestamp: the bucket is still open, but
  // the reported cost and ShouldRefresh must already include it, or a
  // single-timestamp burst could never fire the monitor and a caller's
  // budget ratio would understate what Eq. 11 compares.
  Monitor monitor(MonitorBudget(1.0));
  for (int i = 0; i < 5; ++i) monitor.Observe(7, false, false);
  Monitor flushed = monitor;
  flushed.Flush();
  EXPECT_GT(flushed.online_negative_bits(), 1.0);
  EXPECT_EQ(monitor.online_negative_bits(), flushed.online_negative_bits());
  EXPECT_TRUE(monitor.ShouldRefresh());
  EXPECT_TRUE(flushed.ShouldRefresh());
}

TEST(MonitorTest, PricesTheTrainingDataAtTheBuildersBudget) {
  // One entity, three relations: |E| < 2 is where the universe clamps
  // bite. With no rule selected, the builder prices every training fact
  // as unmapped; a monitor fed the same facts as unmapped must arrive at
  // exactly the builder's L(N_G).
  TemporalKnowledgeGraph graph;
  graph.AddFact("solo", "r0", "solo", 0);
  graph.AddFact("solo", "r1", "solo", 1);
  graph.AddFact("solo", "r2", "solo", 2);
  const AnoT anot = AnoT::Build(graph, AnoTOptions{});
  ASSERT_EQ(anot.report().num_rules, 0u);

  Monitor monitor = anot.monitor();
  for (const auto& [t, ids] : graph.by_time()) {
    for (size_t i = 0; i < ids.size(); ++i) {
      monitor.Observe(t, /*mapped=*/false, /*associated=*/false);
    }
  }
  monitor.Flush();
  EXPECT_GT(anot.report().negative_bits, 0.0);
  EXPECT_EQ(monitor.online_negative_bits(), anot.report().negative_bits);
}

TEST_F(CoreFixture, ProcessArrivalFeedsMonitorAndAutoRefreshes) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  options.auto_refresh = true;
  AnoT local = AnoT::Build(*train_, options);
  local.SetValidityThresholds(1.0, 1.0);

  // Stream dense garbage (unknown entities), 80 arrivals per tick, until
  // its unexplained cost passes the training L(N_G) (Eq. 11): about 11.5k
  // bits in this world, passed after about 720 arrivals.
  const EntityId base = static_cast<EntityId>(local.graph().num_entities());
  Timestamp t = local.graph().max_time() + 1;
  for (int i = 0; i < 2000 && local.refresh_count() == 0; ++i) {
    local.ProcessArrival(Fact(base + i, 0, base + i + 1, t + i / 80));
  }
  EXPECT_GT(local.refresh_count(), 0u);
}

// --------------------------------------------------------------- Ablations

TEST_F(CoreFixture, AblationsStillBuildAndScore) {
  const Fact& probe = graph_->fact(split_->test.front());
  for (int variant = 0; variant < 4; ++variant) {
    AnoTOptions options;
    options.detector = TestDetectorOptions();
    switch (variant) {
      case 0: options.detector.use_triadic = false; break;
      case 1: options.detector.use_recursion = false; break;
      case 2: options.detector.unit_rule_weight = true; break;
      case 3:
        options.detector.ranking = RankingMode::kAssertionsOnly;
        break;
    }
    AnoT variant_model = AnoT::Build(*train_, options);
    EXPECT_GT(variant_model.rules().num_rules(), 0u) << variant;
    const Scores s = variant_model.Score(probe);
    EXPECT_GE(s.static_score, 0.0) << variant;
  }
}

TEST_F(CoreFixture, NoTriadicMeansNoTriadicEdges) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  options.detector.use_triadic = false;
  AnoT no_triadic = AnoT::Build(*train_, options);
  for (RuleEdgeId e = 0; e < no_triadic.rules().num_edges(); ++e) {
    EXPECT_EQ(no_triadic.rules().edge(e).kind, RuleEdgeKind::kChain);
  }
}

TEST_F(CoreFixture, ThetaModesDiffer) {
  AnoTOptions printed;
  printed.detector = TestDetectorOptions();
  printed.detector.theta_mode = ThetaMode::kAsPrinted;
  AnoT printed_model = AnoT::Build(*train_, printed);

  // Same rule graph, different temporal weighting.
  EXPECT_EQ(printed_model.rules().num_rules(), anot_->rules().num_rules());
  bool any_diff = false;
  for (FactId id : split_->test) {
    const Fact& f = graph_->fact(id);
    const Scores a = anot_->Score(f);
    const Scores b = printed_model.Score(f);
    if (a.temporal_evaluated && b.temporal_evaluated &&
        a.temporal_support != b.temporal_support) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------- Duration

TEST(DurationTest, FourGraphsBuildAndScore) {
  GeneratorConfig cfg = TestWorldConfig();
  cfg.num_facts = 4000;
  cfg.durations = true;
  cfg.mean_duration = 20.0;
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);
  auto train = Subgraph(*graph, split.train);

  AnoTOptions options;
  options.detector = TestDetectorOptions();
  DurationAnoT model = DurationAnoT::Build(*train, options);
  ASSERT_EQ(model.num_views(), 4u);
  EXPECT_EQ(model.view_name(0), "ST-ST");
  EXPECT_EQ(model.view_name(3), "ED-ST");

  const Fact& f = graph->fact(split.test.front());
  const Scores s = model.Score(f);
  EXPECT_GE(s.static_score, 0.0);

  // Ingest flows into all views.
  const size_t before = model.view(0).graph().num_facts();
  model.IngestValid(f);
  for (size_t i = 0; i < model.num_views(); ++i) {
    EXPECT_EQ(model.view(i).graph().num_facts(), before + 1);
  }
}

TEST(DurationTest, ScoreAveragesEveryFieldOverTheViews) {
  GeneratorConfig cfg = TestWorldConfig();
  cfg.num_facts = 4000;
  cfg.durations = true;
  cfg.mean_duration = 20.0;
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);
  auto train = Subgraph(*graph, split.train);

  AnoTOptions options;
  options.detector = TestDetectorOptions();
  const DurationAnoT model = DurationAnoT::Build(*train, options);
  ASSERT_EQ(model.num_views(), 4u);

  // A test fact some view finds in temporal conflict, so a dropped
  // conflict term cannot pass as an average of zeros.
  size_t checked = 0;
  for (FactId id : split.test) {
    const Fact& f = graph->fact(id);
    Scores sum;
    for (size_t v = 0; v < model.num_views(); ++v) {
      const Scores s = model.view(v).Score(f);
      sum.static_score += s.static_score;
      sum.temporal_score += s.temporal_score;
      sum.static_support += s.static_support;
      sum.temporal_support += s.temporal_support;
      sum.temporal_conflict += s.temporal_conflict;
      sum.out_violations += s.out_violations;
    }
    if (sum.temporal_conflict == 0.0) continue;
    const double n = static_cast<double>(model.num_views());
    const Scores got = model.Score(f);
    EXPECT_EQ(got.static_score, sum.static_score / n);
    EXPECT_EQ(got.temporal_score, sum.temporal_score / n);
    EXPECT_EQ(got.static_support, sum.static_support / n);
    EXPECT_EQ(got.temporal_support, sum.temporal_support / n);
    EXPECT_EQ(got.temporal_conflict, sum.temporal_conflict / n);
    EXPECT_EQ(got.out_violations, sum.out_violations);
    ++checked;
    break;
  }
  EXPECT_EQ(checked, 1u) << "no test fact in conflict: case is vacuous";
}

TEST(DurationTest, SingleViewStrategies) {
  GeneratorConfig cfg = TestWorldConfig();
  cfg.num_facts = 3000;
  cfg.durations = true;
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);
  auto train = Subgraph(*graph, split.train);

  AnoTOptions options;
  options.detector = TestDetectorOptions();
  for (DurationStrategy strategy :
       {DurationStrategy::kStartOnly, DurationStrategy::kEndOnly,
        DurationStrategy::kAverage}) {
    DurationAnoT model = DurationAnoT::Build(*train, options, strategy);
    EXPECT_EQ(model.num_views(), 1u) << DurationStrategyName(strategy);
    const Scores s = model.Score(graph->fact(split.test.front()));
    EXPECT_GE(s.static_score, 0.0);
  }
}

TEST(DurationTest, StrategyNamesAreStable) {
  EXPECT_STREQ(DurationStrategyName(DurationStrategy::kFourGraphs),
               "four-graphs");
  EXPECT_STREQ(DurationStrategyName(DurationStrategy::kAverage),
               "midpoint-average");
}

TEST(DurationTest, ScoresIdenticalAcrossThreadCounts) {
  GeneratorConfig cfg = TestWorldConfig();
  cfg.num_facts = 3000;
  cfg.durations = true;
  cfg.mean_duration = 20.0;
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);
  auto train = Subgraph(*graph, split.train);

  AnoTOptions options;
  options.detector = TestDetectorOptions();
  options.num_threads = 1;
  DurationAnoT serial = DurationAnoT::Build(*train, options);
  options.num_threads = 8;
  DurationAnoT parallel = DurationAnoT::Build(*train, options);

  ASSERT_EQ(serial.num_views(), parallel.num_views());
  for (size_t v = 0; v < serial.num_views(); ++v) {
    EXPECT_EQ(serial.view_name(v), parallel.view_name(v));
    ExpectRuleGraphsIdentical(serial.view(v).rules(),
                              parallel.view(v).rules());
  }
  const size_t count = std::min<size_t>(100, split.test.size());
  for (size_t i = 0; i < count; ++i) {
    const Fact& f = graph->fact(split.test[i]);
    const Scores a = serial.Score(f);
    const Scores b = parallel.Score(f);
    ASSERT_EQ(a.static_score, b.static_score) << "fact " << i;
    ASSERT_EQ(a.temporal_score, b.temporal_score) << "fact " << i;
    ASSERT_EQ(a.static_support, b.static_support) << "fact " << i;
    ASSERT_EQ(a.temporal_support, b.temporal_support) << "fact " << i;
    ASSERT_EQ(a.out_violations, b.out_violations) << "fact " << i;
    ASSERT_EQ(a.temporal_evaluated, b.temporal_evaluated) << "fact " << i;
    ASSERT_EQ(a.associated, b.associated) << "fact " << i;
  }
}

}  // namespace
}  // namespace anot
