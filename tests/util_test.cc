#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "util/logging.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/tsv.h"

namespace anot {
namespace {

// --------------------------------------------------------------- Logging

TEST(LoggingTest, LevelFilterSuppressesBelowMinLevel) {
  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  ANOT_LOG(Info) << "dropped-line";
  ANOT_LOG(Warn) << "kept-line";
  SetLogLevel(prev);
  std::cerr.rdbuf(old);
  EXPECT_EQ(captured.str().find("dropped-line"), std::string::npos);
  EXPECT_NE(captured.str().find("kept-line"), std::string::npos);
}

TEST(LoggingTest, FilteredMacroDoesNotEvaluateStreamExpression) {
  // The ANOT_LOG fast path short-circuits on one relaxed atomic load
  // before the LogMessage (and its ostringstream) exists, so a filtered
  // call site must not evaluate its stream operands at all.
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto touch = [&evaluations] {
    ++evaluations;
    return "side-effect";
  };
  ANOT_LOG(Debug) << touch();
  ANOT_LOG(Info) << touch();
  SetLogLevel(prev);
  EXPECT_EQ(evaluations, 0);
}

TEST(LoggingTest, SetLogLevelRoundTrips) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(prev);
  EXPECT_EQ(GetLogLevel(), prev);
}

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad k");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad k");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

Status ReturnsEarly(bool fail) {
  ANOT_RETURN_NOT_OK(fail ? Status::Internal("boom") : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(ReturnsEarly(false).ok());
  EXPECT_EQ(ReturnsEarly(true).code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveValueTransfersOwnership) {
  Result<std::string> r(std::string("payload"));
  std::string s = r.MoveValue();
  EXPECT_EQ(s, "payload");
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(RngTest, ZipfFavoursLowRanks) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Zipf(10, 1.2)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  for (size_t k : {0u, 3u, 50u, 100u}) {
    auto sample = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::sort(sample.begin(), sample.end());
    EXPECT_EQ(std::adjacent_find(sample.begin(), sample.end()),
              sample.end());
    for (size_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, WeightedNeverPicksZeroWeight) {
  Rng rng(19);
  std::vector<double> w{0.0, 5.0, 0.0, 1.0};
  for (int i = 0; i < 500; ++i) {
    size_t pick = rng.Weighted(w);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(ZipfSamplerTest, MatchesRngZipfDistributionShape) {
  Rng rng(23);
  ZipfSampler sampler(50, 1.0);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 30000; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[1], counts[30]);
}

// ------------------------------------------------------------- math_util

TEST(MathTest, Log2Basics) {
  EXPECT_DOUBLE_EQ(Log2(8.0), 3.0);
  EXPECT_DOUBLE_EQ(Log2(1.0), 0.0);
  EXPECT_DOUBLE_EQ(Log2(0.0), 0.0);   // guarded
  EXPECT_DOUBLE_EQ(Log2(-3.0), 0.0);  // guarded
}

TEST(MathTest, Log2FactorialSmallValuesExact) {
  EXPECT_DOUBLE_EQ(Log2Factorial(0), 0.0);
  EXPECT_DOUBLE_EQ(Log2Factorial(1), 0.0);
  EXPECT_NEAR(Log2Factorial(4), std::log2(24.0), 1e-9);
  EXPECT_NEAR(Log2Factorial(10), std::log2(3628800.0), 1e-9);
}

TEST(MathTest, Log2BinomialMatchesDirectComputation) {
  // C(10, 3) = 120.
  EXPECT_NEAR(Log2Binomial(10, 3), std::log2(120.0), 1e-9);
  // Degenerate choices carry no information.
  EXPECT_DOUBLE_EQ(Log2Binomial(10, 0), 0.0);
  EXPECT_DOUBLE_EQ(Log2Binomial(10, 10), 0.0);
  EXPECT_DOUBLE_EQ(Log2Binomial(10, 12), 0.0);
}

TEST(MathTest, Log2BinomialSymmetry) {
  for (int b = 1; b < 20; ++b) {
    EXPECT_NEAR(Log2Binomial(20, b), Log2Binomial(20, 20 - b), 1e-7);
  }
}

TEST(MathTest, PrefixCodeBits) {
  EXPECT_NEAR(PrefixCodeBits(1, 2), 1.0, 1e-12);
  EXPECT_NEAR(PrefixCodeBits(1, 8), 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(PrefixCodeBits(0, 8), 0.0);
  EXPECT_DOUBLE_EQ(PrefixCodeBits(8, 8), 0.0);
}

// ------------------------------------------------------------ string_util

TEST(StringTest, SplitKeepsEmptyFields) {
  auto parts = Split("a\t\tb", '\t');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringTest, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringTest, JoinRoundTrip) {
  std::vector<std::string> v{"x", "y", "z"};
  EXPECT_EQ(Join(v, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.12345, 3), "0.123");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

// ------------------------------------------------------------------- TSV

TEST(TsvTest, WriteThenReadRoundTrip) {
  auto path = std::filesystem::temp_directory_path() / "anot_tsv_test.tsv";
  std::vector<std::vector<std::string>> rows{{"a", "r1", "b", "3"},
                                             {"c", "r2", "d", "5"}};
  ASSERT_TRUE(TsvWriter::WriteAll(path.string(), rows).ok());

  std::vector<std::vector<std::string>> read;
  auto st = TsvReader::ForEachRow(
      path.string(), [&](const std::vector<std::string>& row) {
        read.push_back(row);
        return Status::OK();
      });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(read, rows);
  std::filesystem::remove(path);
}

TEST(TsvTest, SkipsCommentsAndBlankLines) {
  auto path = std::filesystem::temp_directory_path() / "anot_tsv_cmt.tsv";
  {
    std::ofstream out(path);
    out << "# comment\n\nx\ty\n";
  }
  int rows = 0;
  ASSERT_TRUE(TsvReader::ForEachRow(path.string(),
                                    [&](const std::vector<std::string>&) {
                                      ++rows;
                                      return Status::OK();
                                    })
                  .ok());
  EXPECT_EQ(rows, 1);
  std::filesystem::remove(path);
}

TEST(TsvTest, MissingFileIsIoError) {
  auto st = TsvReader::ForEachRow("/nonexistent/definitely/missing.tsv",
                                  [](const std::vector<std::string>&) {
                                    return Status::OK();
                                  });
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(TsvTest, CallbackErrorStopsRead) {
  auto path = std::filesystem::temp_directory_path() / "anot_tsv_err.tsv";
  {
    std::ofstream out(path);
    out << "1\n2\n3\n";
  }
  int rows = 0;
  auto st = TsvReader::ForEachRow(path.string(),
                                  [&](const std::vector<std::string>&) {
                                    ++rows;
                                    return rows == 2
                                               ? Status::Internal("stop")
                                               : Status::OK();
                                  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(rows, 2);
  std::filesystem::remove(path);
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

// ----------------------------------------------------------------- Timer

TEST(TimerTest, ElapsedIsNonNegativeAndMonotone) {
  WallTimer timer;
  double a = timer.ElapsedSeconds();
  double b = timer.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace anot
