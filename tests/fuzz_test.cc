// Seeded mutation fuzzer for the two external inputs: a checkpoint file
// and a TSV corpus. Each mutant is a good input with one or two edits —
// bit flips, byte sets, splices, truncations, and count/length-field
// edits — and, for checkpoints, a recomputed footer checksum, so mutants
// reach the section decoders instead of stopping at the checksum. Every
// mutant must either load, pass every structure's Validate(), and serve a
// few arrivals, or come back as an error Status: never a crash, never an
// ANOT_CHECK abort. The seed is fixed, so every run replays the same
// mutants; the ASan/UBSan CI job runs this suite like every other.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/anot.h"
#include "datagen/generator.h"
#include "io/checkpoint.h"
#include "tkg/loader.h"
#include "tkg/split.h"

namespace anot {
namespace {

constexpr size_t kMutantsPerInput = 3000;
constexpr size_t kProbeArrivals = 8;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

uint64_t ReadU64At(const std::string& b, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, b.data() + off, sizeof(v));  // little-endian host
  return v;
}

void WriteU64At(std::string* b, size_t off, uint64_t v) {
  std::memcpy(&(*b)[off], &v, sizeof(v));
}

/// Applies one random edit to `bytes[0, body)`, the region a mutation may
/// touch. `fields` lists offsets of u64 count/length fields to favour;
/// `alphabet` lists byte values worth setting. May shrink `bytes`.
void Mutate(std::mt19937_64& rng, size_t body, const std::vector<size_t>& fields,
            const std::string& alphabet, std::string* bytes) {
  const size_t pos = rng() % body;
  switch (rng() % 5) {
    case 0:  // bit flip
      (*bytes)[pos] = static_cast<char>((*bytes)[pos] ^ (1u << (rng() % 8)));
      break;
    case 1:  // byte set
      (*bytes)[pos] = rng() % 2 == 0 ? alphabet[rng() % alphabet.size()]
                                     : static_cast<char>(rng());
      break;
    case 2: {  // splice: copy a chunk over another spot
      const size_t len = 1 + rng() % std::min<size_t>(64, body);
      const size_t src = rng() % (body - len + 1);
      const size_t dst = rng() % (body - len + 1);
      std::memmove(&(*bytes)[dst], bytes->data() + src, len);
      break;
    }
    case 3: {  // count/length-field edit
      if (body < 8) break;
      size_t off = rng() % (body - 7);
      if (!fields.empty() && rng() % 2 == 0) {
        const size_t field = fields[rng() % fields.size()];
        if (field + 8 <= body) off = field;
      }
      const uint64_t old = ReadU64At(*bytes, off);
      const uint64_t values[] = {0,           1,          old + 1,
                                 old - 1,     old * 2,    0xFFFFFFFFull,
                                 1ull << 32,  1ull << 62, ~0ull};
      WriteU64At(bytes, off, values[rng() % std::size(values)]);
      break;
    }
    default:  // truncation
      bytes->resize(pos);
      break;
  }
}

/// Offsets of the section-length fields of a checkpoint.
std::vector<size_t> SectionLengthFields(const std::string& b) {
  std::vector<size_t> out;
  size_t off = 8 + 4 + 4;  // magic + version + section count
  while (off + 12 <= b.size() - 8) {
    out.push_back(off + 4);
    off += 12 + static_cast<size_t>(ReadU64At(b, off + 4));
  }
  return out;
}

class FuzzFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig cfg;
    cfg.num_entities = 60;
    cfg.num_relations = 10;
    cfg.num_timestamps = 40;
    cfg.num_facts = 600;
    cfg.num_categories = 4;
    cfg.num_chain_rules = 3;
    cfg.num_triadic_rules = 1;
    cfg.chain_follow_prob = 0.7;
    cfg.noise_fraction = 0.03;
    cfg.seed = 99;
    SyntheticGenerator gen(cfg);
    graph_ = gen.Generate().release();
    const TimeSplit split = SplitByTimestamps(*graph_, 0.6, 0.1);
    train_ = Subgraph(*graph_, split.train).release();
    stream_ = new std::vector<Fact>();
    for (FactId id : split.test) stream_->push_back(graph_->fact(id));
  }
  static void TearDownTestSuite() {
    delete stream_;
    delete train_;
    delete graph_;
    stream_ = nullptr;
    train_ = nullptr;
    graph_ = nullptr;
  }

  static AnoTOptions Options() {
    AnoTOptions options;
    options.detector.category.min_support = 3;
    options.detector.timespan_tolerance = 5;
    options.num_threads = 1;
    return options;
  }

  static TemporalKnowledgeGraph* graph_;
  static TemporalKnowledgeGraph* train_;
  static std::vector<Fact>* stream_;
};

TemporalKnowledgeGraph* FuzzFixture::graph_ = nullptr;
TemporalKnowledgeGraph* FuzzFixture::train_ = nullptr;
std::vector<Fact>* FuzzFixture::stream_ = nullptr;

/// Every structure of a loaded detector passes its Validate().
void ExpectValid(const AnoT& system) {
  EXPECT_TRUE(system.graph().Validate().ok());
  EXPECT_TRUE(
      system.categories().Validate(system.graph().num_entities()).ok());
  EXPECT_TRUE(system.rules().Validate().ok());
  EXPECT_TRUE(system.monitor().Validate().ok());
  EXPECT_TRUE(system.updater().Validate().ok());
  system.CheckInvariants();
}

TEST_F(FuzzFixture, CheckpointMutantsLoadOrFailCleanly) {
  AnoT system = AnoT::Build(*train_, Options());
  const size_t half = stream_->size() / 2;
  for (size_t i = 0; i < half; ++i) system.ProcessArrival((*stream_)[i]);
  const std::string path = TempPath("anot_fuzz_ckpt.bin");
  ASSERT_TRUE(system.SaveCheckpoint(path).ok());
  const std::string good = ReadBytes(path);
  const std::vector<size_t> fields = SectionLengthFields(good);
  ASSERT_EQ(fields.size(), 8u);
  const std::string alphabet("\x00\x01\x02\x7f\x80\xff", 6);

  std::mt19937_64 rng(20240611);
  size_t loaded = 0;
  for (size_t m = 0; m < kMutantsPerInput; ++m) {
    std::string bytes = good;
    const size_t edits = rng() % 4 == 0 ? 2 : 1;
    for (size_t e = 0; e < edits && bytes.size() > 8; ++e) {
      std::string body = bytes.substr(0, bytes.size() - 8);
      Mutate(rng, body.size(), fields, alphabet, &body);
      bytes = body + std::string(8, '\0');
    }
    WriteU64At(&bytes, bytes.size() - 8,
               Checkpoint::Checksum(bytes.data(), bytes.size() - 8));
    WriteBytes(path, bytes);
    Result<AnoT> r = AnoT::LoadCheckpoint(path);
    if (!r.ok()) {
      // The footer is recomputed, so no mutant may stop at the checksum.
      EXPECT_EQ(r.status().message().find("checksum"), std::string::npos)
          << "mutant " << m << ": " << r.status().message();
      continue;
    }
    ++loaded;
    AnoT& restored = r.value();
    ExpectValid(restored);
    for (size_t i = half; i < std::min(half + kProbeArrivals, stream_->size());
         ++i) {
      restored.ProcessArrival((*stream_)[i]);
    }
  }
  std::filesystem::remove(path);
  // Vacuity guards: the mutants must exercise both outcomes.
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, kMutantsPerInput);
  RecordProperty("loaded", static_cast<int>(loaded));
}

TEST_F(FuzzFixture, CheckpointToleranceMutantsLoadOrFailCleanly) {
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  const AnoTOptions options = Options();
  AnoT system = AnoT::Build(*train_, options);
  const size_t half = stream_->size() / 2;
  for (size_t i = 0; i < half; ++i) system.ProcessArrival((*stream_)[i]);
  const std::string path = TempPath("anot_fuzz_tolerance.bin");
  ASSERT_TRUE(system.SaveCheckpoint(path).ok());
  const std::string good = ReadBytes(path);

  // L follows max_candidate_edges and max_recursion_steps in the options
  // section (DetectorOptions::Fields); the three u64s locate it.
  std::string pattern(24, '\0');
  WriteU64At(&pattern, 0, options.detector.max_candidate_edges);
  WriteU64At(&pattern, 8, options.detector.max_recursion_steps);
  WriteU64At(&pattern, 16,
             static_cast<uint64_t>(options.detector.timespan_tolerance));
  const size_t at = good.find(pattern);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(good.find(pattern, at + 1), std::string::npos);

  // A negative L is rejected by the reader; an L at or next to the
  // Timestamp limit loads and serves without overflowing δ ± L.
  const struct {
    Timestamp tolerance;
    bool loads;
  } cases[] = {{-1, false}, {kMin, false}, {kMax - 1, true}, {kMax, true}};
  for (const auto& c : cases) {
    std::string bytes = good;
    WriteU64At(&bytes, at + 16, static_cast<uint64_t>(c.tolerance));
    WriteU64At(&bytes, bytes.size() - 8,
               Checkpoint::Checksum(bytes.data(), bytes.size() - 8));
    WriteBytes(path, bytes);
    Result<AnoT> r = AnoT::LoadCheckpoint(path);
    if (!c.loads) {
      ASSERT_FALSE(r.ok()) << "L = " << c.tolerance;
      EXPECT_NE(r.status().message().find("out of range"), std::string::npos)
          << r.status().message();
      continue;
    }
    ASSERT_TRUE(r.ok()) << "L = " << c.tolerance << ": "
                        << r.status().message();
    AnoT& restored = r.value();
    EXPECT_EQ(restored.options().detector.timespan_tolerance, c.tolerance);
    ExpectValid(restored);
    for (size_t i = half; i < stream_->size(); ++i) {
      restored.ProcessArrival((*stream_)[i]);
    }
  }
  std::filesystem::remove(path);
}

TEST_F(FuzzFixture, TsvMutantsLoadOrFailCleanly) {
  const AnoT system = AnoT::Build(*train_, Options());
  const std::string path = TempPath("anot_fuzz_corpus.tsv");
  ASSERT_TRUE(TkgIo::SaveTsv(*train_, path).ok());
  const std::string good = ReadBytes(path);
  const std::string alphabet("\t\n\r-09#x \x00\xff", 11);

  std::mt19937_64 rng(20240612);
  size_t loaded = 0;
  for (size_t m = 0; m < kMutantsPerInput; ++m) {
    std::string bytes = good;
    const size_t edits = rng() % 4 == 0 ? 2 : 1;
    for (size_t e = 0; e < edits && bytes.size() > 8; ++e) {
      Mutate(rng, bytes.size(), {}, alphabet, &bytes);
    }
    WriteBytes(path, bytes);
    Result<std::unique_ptr<TemporalKnowledgeGraph>> r = TkgIo::LoadTsv(path);
    if (!r.ok()) continue;
    ++loaded;
    const TemporalKnowledgeGraph& g = *r.value();
    EXPECT_TRUE(g.Validate().ok()) << "mutant " << m;
    g.CheckInvariants();
    for (size_t i = 0; i < std::min(kProbeArrivals, g.num_facts()); ++i) {
      (void)system.Score(g.fact(static_cast<FactId>(i)));
    }
  }
  std::filesystem::remove(path);
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, kMutantsPerInput);
  RecordProperty("loaded", static_cast<int>(loaded));
}

}  // namespace
}  // namespace anot
