// Checkpoint / warm-restart suite: pins the headline contract — save after
// offline build + N arrivals, load in a fresh detector, and the remaining
// stream's scores, monitor decisions, and pending-rule state are
// bit-identical to never having restarted — plus the canonical-bytes
// properties (saving a just-loaded detector reproduces the file byte for
// byte, and two identical builds save identical bytes) and the
// malformed-input failure paths: framing errors, and one semantic
// corruption per section, each a descriptive Status (never a crash, never
// an abort: the loader runs each structure's Validate() before any
// ANOT_CHECK-bearing constructor or mutator sees the data).
//
// CI runs this suite under ANOT_THREADS=1 and ANOT_THREADS=4; the env
// value selects the thread schedule exactly as in online_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "anomaly/injector.h"
#include "core/anot.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "io/checkpoint.h"
#include "serving_test_util.h"
#include "tkg/split.h"

namespace anot {
namespace {

GeneratorConfig CheckpointWorldConfig() {
  GeneratorConfig cfg;
  cfg.num_entities = 150;
  cfg.num_relations = 20;
  cfg.num_timestamps = 100;
  cfg.num_facts = 3000;
  cfg.num_categories = 5;
  cfg.num_chain_rules = 4;
  cfg.num_triadic_rules = 2;
  cfg.chain_follow_prob = 0.7;
  cfg.noise_fraction = 0.03;
  cfg.seed = 1234;
  return cfg;
}

AnoTOptions CheckpointOptions(size_t num_threads) {
  AnoTOptions options;
  options.detector.category.min_support = 4;
  options.detector.timespan_tolerance = 10;
  options.detector.max_recursion_steps = 2;
  options.num_threads = num_threads;
  return options;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

uint32_t ReadU32At(const std::string& b, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(b[off + i])) << (8 * i);
  }
  return v;
}

uint64_t ReadU64At(const std::string& b, size_t off) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(b[off + i])) << (8 * i);
  }
  return v;
}

void WriteU64At(std::string* b, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) (*b)[off + i] = static_cast<char>(v >> (8 * i));
}

void WriteU32At(std::string* b, size_t off, uint32_t v) {
  for (int i = 0; i < 4; ++i) (*b)[off + i] = static_cast<char>(v >> (8 * i));
}

/// Recomputes the footer after a byte patch, so the test reaches the
/// validation layer it targets instead of tripping the checksum first.
void Rechecksum(std::string* bytes) {
  const uint64_t h =
      Checkpoint::Checksum(bytes->data(), bytes->size() - 8);
  WriteU64At(bytes, bytes->size() - 8, h);
}

/// Walks the section table to the payload of section `want_id`.
size_t SectionPayloadOffset(const std::string& b, uint32_t want_id,
                            uint64_t* len_out) {
  size_t off = 8 + 4 + 4;  // magic + version + section count
  for (;;) {
    const uint32_t id = ReadU32At(b, off);
    const uint64_t len = ReadU64At(b, off + 4);
    if (id == want_id) {
      *len_out = len;
      return off + 12;
    }
    off += 12 + static_cast<size_t>(len);
    EXPECT_LT(off, b.size()) << "section " << want_id << " not found";
  }
}

/// Shared expensive fixture: one world, one split, one labeled stream, and
/// one cached good checkpoint for the failure-path tests to mutate.
class CheckpointFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticGenerator gen(CheckpointWorldConfig());
    graph_ = gen.Generate().release();
    split_ = new TimeSplit(SplitByTimestamps(*graph_, 0.6, 0.1));
    train_ = Subgraph(*graph_, split_->train).release();

    AnomalyInjector injector(InjectorConfig{});
    EvalStream labeled = injector.Inject(*graph_, split_->test);
    stream_ = new std::vector<Fact>();
    for (const LabeledFact& lf : labeled.arrivals) {
      stream_->push_back(lf.fact);
    }

    // One good checkpoint, mid-stream, shared by every corruption test.
    AnoT system = AnoT::Build(*train_, CheckpointOptions(1));
    const size_t n = std::min<size_t>(100, stream_->size());
    for (size_t i = 0; i < n; ++i) system.ProcessArrival((*stream_)[i]);
    const std::string path = TempPath("anot_ckpt_fixture.bin");
    ASSERT_TRUE(system.SaveCheckpoint(path).ok());
    good_bytes_ = new std::string(ReadBytes(path));
    std::filesystem::remove(path);
  }
  static void TearDownTestSuite() {
    delete good_bytes_;
    delete stream_;
    delete train_;
    delete split_;
    delete graph_;
    good_bytes_ = nullptr;
    stream_ = nullptr;
    train_ = nullptr;
    split_ = nullptr;
    graph_ = nullptr;
  }

  /// Writes a (possibly patched) byte string and loads it.
  static Result<AnoT> LoadFromBytes(const std::string& bytes,
                                    const std::string& name) {
    const std::string path = TempPath(name);
    WriteBytes(path, bytes);
    Result<AnoT> r = AnoT::LoadCheckpoint(path);
    std::filesystem::remove(path);
    return r;
  }

  static TemporalKnowledgeGraph* graph_;
  static TimeSplit* split_;
  static TemporalKnowledgeGraph* train_;
  static std::vector<Fact>* stream_;
  static std::string* good_bytes_;
};

TemporalKnowledgeGraph* CheckpointFixture::graph_ = nullptr;
TimeSplit* CheckpointFixture::split_ = nullptr;
TemporalKnowledgeGraph* CheckpointFixture::train_ = nullptr;
std::vector<Fact>* CheckpointFixture::stream_ = nullptr;
std::string* CheckpointFixture::good_bytes_ = nullptr;

// ------------------------------------------------ warm-restart equivalence

/// Processes stream[begin, end) in order, appending the scores.
void RunRange(AnoT* system, const std::vector<Fact>& stream, size_t begin,
              size_t end, std::vector<Scores>* scores,
              UpdateEffects* effects) {
  for (size_t i = begin; i < end; ++i) {
    scores->push_back(system->ProcessArrival(stream[i], effects));
  }
}

TEST_F(CheckpointFixture, WarmRestartBitIdenticalToUninterrupted) {
  for (size_t threads : ThreadCountsUnderTest()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const AnoTOptions options = CheckpointOptions(threads);

    // Reference: one uninterrupted run over the whole stream.
    AnoT ref = AnoT::Build(*train_, options);
    std::vector<Scores> ref_scores;
    UpdateEffects ref_effects;
    RunRange(&ref, *stream_, 0, stream_->size(), &ref_scores, &ref_effects);
    ValidateAtCommitBoundary(ref);

    // Interrupted run: process to a mid-stream batch boundary past the
    // halfway mark where pending rules exist (so the checkpoint carries
    // live updater state), save, load in a "fresh process", continue.
    AnoT first = AnoT::Build(*train_, options);
    std::vector<Scores> warm_scores;
    UpdateEffects warm_effects;
    const size_t half = stream_->size() / 2;
    size_t saved_at = 0;
    for (size_t i = 0; i < stream_->size() && saved_at == 0; i += 32) {
      const size_t stop = std::min(stream_->size(), i + 32);
      RunRange(&first, *stream_, i, stop, &warm_scores, &warm_effects);
      if (stop >= half && first.updater().pending_rule_count() > 0 &&
          stop < stream_->size()) {
        saved_at = stop;
      }
    }
    ASSERT_GT(saved_at, 0u)
        << "no mid-stream point with pending rules: the warm-restart case "
           "would not exercise updater state";

    const std::string path =
        TempPath("anot_ckpt_warm_" + std::to_string(threads) + ".bin");
    ASSERT_TRUE(first.SaveCheckpoint(path).ok());
    Result<AnoT> loaded = AnoT::LoadCheckpoint(path);
    std::filesystem::remove(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    AnoT warm = loaded.MoveValue();

    // The restored detector must resume exactly where the first left off.
    EXPECT_EQ(warm.graph().num_facts(), first.graph().num_facts());
    EXPECT_EQ(warm.updater().pending_rule_count(),
              first.updater().pending_rule_count());
    EXPECT_EQ(warm.rules().ToString(), first.rules().ToString());

    RunRange(&warm, *stream_, saved_at, stream_->size(), &warm_scores,
             &warm_effects);
    ValidateAtCommitBoundary(warm);

    ASSERT_EQ(ref_scores.size(), warm_scores.size());
    for (size_t i = 0; i < ref_scores.size(); ++i) {
      ExpectScoresIdentical(ref_scores[i], warm_scores[i], i);
    }
    EXPECT_EQ(ref_effects.facts_ingested, warm_effects.facts_ingested);
    EXPECT_EQ(ref_effects.new_entity_categories,
              warm_effects.new_entity_categories);
    EXPECT_EQ(ref_effects.new_rule_nodes, warm_effects.new_rule_nodes);
    EXPECT_EQ(ref_effects.new_rule_edges, warm_effects.new_rule_edges);
    EXPECT_EQ(ref_effects.timespans_recorded,
              warm_effects.timespans_recorded);
    EXPECT_EQ(ref.refresh_count(), warm.refresh_count());
    EXPECT_EQ(ref.graph().num_facts(), warm.graph().num_facts());
    EXPECT_EQ(ref.rules().ToString(), warm.rules().ToString());
    EXPECT_EQ(ref.updater().pending_rule_count(),
              warm.updater().pending_rule_count());
    EXPECT_EQ(ref.monitor().ShouldRefresh(), warm.monitor().ShouldRefresh());
  }
}

// -------------------------------------------------------- canonical bytes

TEST_F(CheckpointFixture, ResaveOfLoadedDetectorIsByteIdentical) {
  // save(load(save(x))) == save(x): the serialization is canonical, so a
  // checkpoint can be re-saved indefinitely without drift.
  Result<AnoT> loaded = LoadFromBytes(*good_bytes_, "anot_ckpt_canon.bin");
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const std::string path = TempPath("anot_ckpt_canon2.bin");
  ASSERT_TRUE(loaded.value().SaveCheckpoint(path).ok());
  const std::string resaved = ReadBytes(path);
  std::filesystem::remove(path);
  EXPECT_EQ(*good_bytes_, resaved);
}

TEST_F(CheckpointFixture, TwoBuildsSaveIdenticalBytes) {
  // Wall-clock build time is not state, so it is not persisted: two
  // independent builds with the same options save the same bytes.
  std::string saved[2];
  for (std::string& bytes : saved) {
    AnoT system = AnoT::Build(*train_, CheckpointOptions(1));
    const std::string path = TempPath("anot_ckpt_twin.bin");
    ASSERT_TRUE(system.SaveCheckpoint(path).ok());
    bytes = ReadBytes(path);
    std::filesystem::remove(path);
  }
  EXPECT_TRUE(saved[0] == saved[1])
      << "sizes " << saved[0].size() << " and " << saved[1].size();
}

TEST_F(CheckpointFixture, FreshBuildRoundTripsBeforeAnyArrival) {
  AnoT system = AnoT::Build(*train_, CheckpointOptions(1));
  const std::string path = TempPath("anot_ckpt_fresh.bin");
  ASSERT_TRUE(system.SaveCheckpoint(path).ok());
  Result<AnoT> loaded = AnoT::LoadCheckpoint(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  // Both candidate-edge counts survive the round trip: every generated
  // edge key, and the materialized pool the edge pass ranked.
  const BuildReport& saved = system.report();
  const BuildReport& restored = loaded.value().report();
  EXPECT_GT(saved.num_generated_candidate_edges, saved.num_candidate_edges);
  EXPECT_EQ(restored.num_generated_candidate_edges,
            saved.num_generated_candidate_edges);
  EXPECT_EQ(restored.num_candidate_edges, saved.num_candidate_edges);
  // So do the PrefixSpan counters; this world mines below the cap.
  EXPECT_GT(saved.num_mined_combinations, 0u);
  EXPECT_FALSE(saved.combination_cap_hit);
  EXPECT_EQ(restored.num_mined_combinations, saved.num_mined_combinations);
  EXPECT_EQ(restored.combination_cap_hit, saved.combination_cap_hit);
  EXPECT_EQ(restored.total_bits(), saved.total_bits());
  const size_t n = std::min<size_t>(50, stream_->size());
  for (size_t i = 0; i < n; ++i) {
    ExpectScoresIdentical(system.Score((*stream_)[i]),
                          loaded.value().Score((*stream_)[i]), i);
  }
}

TEST(CheckpointCapTest, MiningCapCountersRoundTripWhereTheCapBinds) {
  // The first 60% of the GDELT preset at its default bench scale: ~61
  // entities with dense token sets, so PrefixSpan stops at its
  // 200,000-pattern cap and the report says so across a restart.
  auto graph = SyntheticGenerator(DatasetPresets::Gdelt(
                                      DatasetPresets::DefaultBenchScale("gdelt")))
                   .Generate();
  auto train = Subgraph(*graph, SplitByTimestamps(*graph, 0.6, 0.1).train);
  AnoT system = AnoT::Build(*train, CheckpointOptions(2));
  const std::string path = TempPath("anot_ckpt_gdelt.bin");
  ASSERT_TRUE(system.SaveCheckpoint(path).ok());
  Result<AnoT> loaded = AnoT::LoadCheckpoint(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const BuildReport& saved = system.report();
  const BuildReport& restored = loaded.value().report();
  EXPECT_EQ(saved.num_mined_combinations, 200000u);
  EXPECT_TRUE(saved.combination_cap_hit);
  EXPECT_EQ(restored.num_mined_combinations, saved.num_mined_combinations);
  EXPECT_EQ(restored.combination_cap_hit, saved.combination_cap_hit);
}

// ------------------------------------------------------- refresh quiesce

TEST_F(CheckpointFixture, SaveDuringInFlightRefreshIsFailedPrecondition) {
  AnoT system = AnoT::Build(*train_, CheckpointOptions(2));
  const size_t n = std::min<size_t>(50, stream_->size());
  for (size_t i = 0; i < n; ++i) system.ProcessArrival((*stream_)[i]);

  system.RefreshAsync();
  const std::string path = TempPath("anot_ckpt_inflight.bin");
  const Status st = system.SaveCheckpoint(path);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.message();
  EXPECT_FALSE(std::filesystem::exists(path));

  // After the swap, saving works and the checkpoint loads.
  ASSERT_TRUE(system.FinishRefresh());
  ASSERT_TRUE(system.SaveCheckpoint(path).ok());
  Result<AnoT> loaded = AnoT::LoadCheckpoint(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().refresh_count(), system.refresh_count());
}

// -------------------------------------------------- malformed-input paths
//
// Every case must come back as an error Status with a recognizable
// message — no crash, no ANOT_CHECK abort — which is what lets these run
// under ASan/UBSan without death tests.

TEST_F(CheckpointFixture, LoadMissingFileFails) {
  Result<AnoT> r = AnoT::LoadCheckpoint(TempPath("anot_ckpt_missing.bin"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// Load sizes its buffer from the file before the one read, so paths whose
// size is not a byte count, or is zero, must fail before any byte is read.
TEST_F(CheckpointFixture, LoadDirectoryFailsWithIoError) {
  const std::string path = TempPath("anot_ckpt_dir");
  std::filesystem::create_directories(path);
  Result<AnoT> r = AnoT::LoadCheckpoint(path);
  std::filesystem::remove(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError) << r.status().message();
}

TEST_F(CheckpointFixture, LoadEmptyFileIsTooShort) {
  Result<AnoT> r = LoadFromBytes("", "anot_ckpt_empty.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("too short"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsFileTooShort) {
  Result<AnoT> r =
      LoadFromBytes(good_bytes_->substr(0, 10), "anot_ckpt_short.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("too short"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsWrongMagic) {
  std::string bytes = *good_bytes_;
  bytes[0] = 'X';
  Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_magic.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bad magic"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsTruncatedFile) {
  const std::string bytes = good_bytes_->substr(0, good_bytes_->size() - 9);
  Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_trunc.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsCorruptPayloadByte) {
  std::string bytes = *good_bytes_;
  bytes[bytes.size() / 2] ^= 0x40;
  Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_flip.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsFutureFormatVersion) {
  std::string bytes = *good_bytes_;
  bytes[8] = static_cast<char>(Checkpoint::kFormatVersion + 1);
  Rechecksum(&bytes);
  Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_version.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("format version"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsSectionLengthBeyondFileSize) {
  std::string bytes = *good_bytes_;
  // First section header sits right after magic+version+count; its u64
  // length starts 4 bytes in (after the section id).
  WriteU64At(&bytes, 8 + 4 + 4 + 4, 0x00FFFFFFFFFFull);
  Rechecksum(&bytes);
  Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_seclen.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("section length"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsSemanticallyInvalidMonitorState) {
  // Valid framing and checksum, invalid state: bucket_associated (the
  // last field of the monitor section) greater than bucket_mapped. The
  // decoder must return it as a Status — Monitor::CheckInvariants would
  // abort on it.
  std::string bytes = *good_bytes_;
  uint64_t len = 0;
  const size_t payload = SectionPayloadOffset(bytes, /*monitor=*/6, &len);
  bytes[payload + len - 4] = static_cast<char>(0xFF);
  bytes[payload + len - 3] = static_cast<char>(0xFF);
  Rechecksum(&bytes);
  Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_monitor.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("monitor"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsTrailingGarbageInsideSection) {
  // Grow the serving section (the last one) by 8 bytes of zeros and fix
  // up its declared length: framing stays coherent, but the payload now
  // has bytes its decoder never consumes.
  std::string bytes = *good_bytes_;
  uint64_t len = 0;
  const size_t payload = SectionPayloadOffset(bytes, /*serving=*/8, &len);
  bytes.insert(payload + static_cast<size_t>(len), 8, '\0');
  WriteU64At(&bytes, payload - 8, len + 8);
  Rechecksum(&bytes);
  Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_trailing.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("trailing bytes"), std::string::npos)
      << r.status().message();
}

// ----------------------------------------------- per-section semantics
//
// One corruption per section, each a patch of the good file that keeps
// its framing and is re-checksummed, so it reaches the section decoder.

/// Offset of the first category with two or more tokens, or 0 if none.
size_t FirstMultiTokenCategory(const std::string& b, size_t payload) {
  const uint64_t num_categories = ReadU64At(b, payload);
  size_t off = payload + 8;
  for (uint64_t c = 0; c < num_categories; ++c) {
    const uint64_t tokens = ReadU64At(b, off);
    if (tokens >= 2) return off;
    off += 8 + 4 * static_cast<size_t>(tokens);
    off += 8 + 4 * static_cast<size_t>(ReadU64At(b, off));  // members
  }
  return 0;
}

/// Fields visitor summing the encoded widths of the fields before
/// `target`: a bounded enum is stored as one byte, every other field
/// (integers and doubles, bounded or not) at its own width.
struct FieldOffset {
  // anot-own: points into the struct whose Fields list is walked, which
  // outlives the walk.
  const void* target = nullptr;
  size_t bytes = 0;
  bool found = false;

  template <class U>
  void operator()(U& x) {
    static_assert(std::is_arithmetic_v<U>, "stored at its own width");
    Count(&x, sizeof(U));
  }
  template <class U>
  void operator()(U& x, U /*max*/) {
    Count(&x, std::is_enum_v<U> ? 1 : sizeof(U));
  }

 private:
  void Count(const void* field, size_t width) {
    if (field == target) found = true;
    if (!found) bytes += width;
  }
};

/// Offset of AnoTOptions field `field` (reached from the options root)
/// inside the options section's payload, found by name through
/// AnoTOptions::Fields, so a field added to the tree cannot retarget a row.
template <class Get>
size_t OptionsFieldOffset(Get field) {
  AnoTOptions options;
  FieldOffset offset;
  offset.target = &field(options);
  options.Fields(offset);
  EXPECT_TRUE(offset.found) << "field not in AnoTOptions::Fields";
  return offset.bytes;
}

/// Offset of BuildReport field `field` inside the report section's
/// payload, found by name through BuildReport::Fields, so a field appended
/// to the list cannot retarget a row.
template <class T>
size_t ReportFieldOffset(T BuildReport::*field) {
  BuildReport report;
  FieldOffset offset;
  offset.target = &(report.*field);
  report.Fields(offset);
  EXPECT_TRUE(offset.found) << "field not in BuildReport::Fields";
  return offset.bytes;
}

struct SectionCorruption {
  // anot-own: points at a string literal in kSectionCorruptions.
  const char* name;
  uint32_t section;
  /// Patches the section payload at `payload` (of length `len`) in place.
  void (*patch)(std::string* b, size_t payload, uint64_t len);
  /// Phrase the error message must contain.
  // anot-own: points at a string literal in kSectionCorruptions.
  const char* expect;
};

const SectionCorruption kSectionCorruptions[] = {
    {"options enum out of range", 1,
     [](std::string* b, size_t payload, uint64_t) {
       // TimeAnchor has two enumerators, kStart = 0 and kEnd = 1.
       (*b)[payload + OptionsFieldOffset([](AnoTOptions& o) -> auto& {
              return o.detector.tail_anchor;
            })] = 2;
     },
     "out of range"},
    {"options thread count out of range", 1,
     [](std::string* b, size_t payload, uint64_t) {
       WriteU64At(b, payload + OptionsFieldOffset([](AnoTOptions& o) -> auto& {
                       return o.num_threads;
                     }),
                  4097);
     },
     "out of range"},
    {"fact naming an unknown entity", 2,
     [](std::string* b, size_t payload, uint64_t len) {
       // The fact log closes the section: 28 bytes per fact.
       WriteU32At(b, payload + len - 28, 0x7FFFFFF0u);
     },
     "unknown entity"},
    {"unsorted category tokens", 3,
     [](std::string* b, size_t payload, uint64_t) {
       const size_t off = FirstMultiTokenCategory(*b, payload);
       ASSERT_GT(off, 0u) << "no category with two tokens";
       WriteU32At(b, off + 8, 0xFFFFFFF0u);  // first token above the second
     },
     "tokens not strictly ascending"},
    {"category member outside the entity universe", 3,
     [](std::string* b, size_t payload, uint64_t) {
       // First category: u64 token count and tokens, then u64 member
       // count and members. Raising the last member keeps them ascending.
       const size_t tokens = payload + 8;
       const size_t members =
           tokens + 8 + 4 * static_cast<size_t>(ReadU64At(*b, tokens));
       const uint64_t num_members = ReadU64At(*b, members);
       ASSERT_GT(num_members, 0u) << "first category has no members";
       WriteU32At(b, members + 8 + 4 * static_cast<size_t>(num_members - 1),
                  0xFFFFFFF0u);
     },
     "outside the entity universe"},
    {"edge naming an unknown rule", 4,
     [](std::string* b, size_t payload, uint64_t) {
       const uint64_t num_rules = ReadU64At(*b, payload);
       const size_t edges = payload + 8 + 17 * static_cast<size_t>(num_rules);
       ASSERT_GT(ReadU64At(*b, edges), 0u) << "no rule edges";
       // First edge: u8 kind, then u32 head.
       WriteU32At(b, edges + 8 + 1, static_cast<uint32_t>(num_rules + 7));
     },
     "unknown rule"},
    {"report flag out of range", 5,
     [](std::string* b, size_t payload, uint64_t) {
       (*b)[payload + ReportFieldOffset(&BuildReport::combination_cap_hit)] =
           2;
     },
     "out of range"},
    {"non-finite report value", 5,
     [](std::string* b, size_t payload, uint64_t) {
       WriteU64At(b, payload + ReportFieldOffset(&BuildReport::negative_bits),
                  0x7FF8000000000000ull);  // NaN
     },
     "non-finite"},
    {"negative monitor budget", 5,
     [](std::string* b, size_t payload, uint64_t) {
       WriteU64At(b, payload + ReportFieldOffset(&BuildReport::negative_bits),
                  0xBFF0000000000000ull);  // -1.0
     },
     "budget out of range"},
    {"negative tier-1 universe", 5,
     [](std::string* b, size_t payload, uint64_t) {
       WriteU64At(b, payload + ReportFieldOffset(&BuildReport::tier1_universe),
                  0xBFF0000000000000ull);  // -1.0
     },
     "tier-1 universe out of range"},
    {"non-finite tier-2 universe", 5,
     [](std::string* b, size_t payload, uint64_t) {
       WriteU64At(b, payload + ReportFieldOffset(&BuildReport::tier2_universe),
                  0x7FF0000000000000ull);  // +inf
     },
     "non-finite"},
    {"pending rule with zero support", 7,
     [](std::string* b, size_t payload, uint64_t) {
       ASSERT_GT(ReadU64At(*b, payload), 0u) << "no pending rules";
       // First entry: three u32 rule fields, then the u32 support.
       WriteU32At(b, payload + 8 + 12, 0);
     },
     "zero support"},
    {"duplicate pending rule", 7,
     [](std::string* b, size_t payload, uint64_t) {
       ASSERT_GT(ReadU64At(*b, payload), 1u) << "fewer than two pending rules";
       // Entries are 16 bytes: the first entry's rule over the second's.
       b->replace(payload + 8 + 16, 12, b->substr(payload + 8, 12));
     },
     "duplicate pending rule"},
    {"pending rule also admitted", 7,
     [](std::string* b, size_t payload, uint64_t) {
       uint64_t len = 0;
       const size_t rules = SectionPayloadOffset(*b, 4, &len);
       ASSERT_GT(ReadU64At(*b, rules), 0u) << "no rules";
       ASSERT_GT(ReadU64At(*b, payload), 0u) << "no pending rules";
       // Both tables open with a u64 count and each entry with its rule:
       // the first rule over the first pending entry's.
       b->replace(payload + 8, 12, b->substr(rules + 8, 12));
     },
     "both pending and admitted"},
};

TEST_F(CheckpointFixture, RejectsSemanticCorruptionInEverySection) {
  for (const SectionCorruption& c : kSectionCorruptions) {
    SCOPED_TRACE(c.name);
    std::string bytes = *good_bytes_;
    uint64_t len = 0;
    const size_t payload = SectionPayloadOffset(bytes, c.section, &len);
    c.patch(&bytes, payload, len);
    Rechecksum(&bytes);
    Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_section.bin");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find(c.expect), std::string::npos)
        << r.status().message();
  }
}

}  // namespace
}  // namespace anot
