// Tests for Status, Random / Zipfian, and LatencyRecorder.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "common/latency_recorder.h"
#include "common/random.h"
#include "common/status.h"

namespace dynamast {
namespace {

// ---- Status ------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryAndPredicates) {
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists().IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::NotMaster().IsNotMaster());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::SnapshotTooOld().IsSnapshotTooOld());
  EXPECT_TRUE(Status::Internal().IsInternal());
  EXPECT_FALSE(Status::NotFound().ok());
}

TEST(StatusTest, MessageCarried) {
  Status s = Status::Aborted("write-write conflict");
  EXPECT_EQ(s.message(), "write-write conflict");
  EXPECT_EQ(s.ToString(), "Aborted: write-write conflict");
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound() == Status::Aborted());
}

// ---- Random ------------------------------------------------------------

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformRespectsBound) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RandomTest, UniformRangeInclusive) {
  Random rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.UniformRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, BinomialMeanApproximatelyNp) {
  Random rng(13);
  double sum = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) sum += rng.Binomial(5, 0.5);
  const double mean = sum / kTrials;
  EXPECT_NEAR(mean, 2.5, 0.1);
}

TEST(RandomTest, BinomialBounds) {
  Random rng(15);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(rng.Binomial(5, 0.5), 5u);
}

TEST(ZipfianTest, ProducesValuesInRange) {
  Random rng(17);
  ZipfianGenerator zipf(1000, 0.75);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(zipf.Next(rng), 1000u);
}

TEST(ZipfianTest, RankZeroIsHottest) {
  Random rng(19);
  ZipfianGenerator zipf(1000, 0.75);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[zipf.Next(rng)]++;
  // Rank 0 must receive (far) more mass than a mid-range rank.
  EXPECT_GT(counts[0], counts[500] * 5);
  // And a substantial share overall (theta=0.75, n=1000 -> several %).
  EXPECT_GT(counts[0], 50000 / 100);
}

TEST(ZipfianTest, SkewIncreasesWithTheta) {
  Random rng(21);
  ZipfianGenerator weak(1000, 0.4), strong(1000, 0.95);
  int weak_zero = 0, strong_zero = 0;
  for (int i = 0; i < 30000; ++i) {
    if (weak.Next(rng) == 0) ++weak_zero;
    if (strong.Next(rng) == 0) ++strong_zero;
  }
  EXPECT_GT(strong_zero, weak_zero);
}

TEST(ScrambledZipfianTest, SpreadsHotKeys) {
  Random rng(23);
  ScrambledZipfianGenerator zipf(1000, 0.75);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[zipf.Next(rng)]++;
  // The hottest key should not be key 0 deterministically placed at the
  // front — scrambling moves it, but skew is preserved: some key is hot.
  int max_count = 0;
  for (const auto& [key, count] : counts) max_count = std::max(max_count, count);
  EXPECT_GT(max_count, 50000 / 200);
}

// ---- LatencyRecorder ----------------------------------------------------

TEST(LatencyRecorderTest, EmptyRecorder) {
  LatencyRecorder recorder;
  EXPECT_EQ(recorder.count(), 0u);
  EXPECT_EQ(recorder.MeanMicros(), 0.0);
  EXPECT_EQ(recorder.PercentileMicros(0.5), 0.0);
}

TEST(LatencyRecorderTest, SingleValue) {
  LatencyRecorder recorder;
  recorder.Record(1000);
  EXPECT_EQ(recorder.count(), 1u);
  EXPECT_DOUBLE_EQ(recorder.MeanMicros(), 1000.0);
  EXPECT_EQ(recorder.MaxMicros(), 1000u);
  // Bucketed estimate within the ~4% bucket resolution.
  EXPECT_NEAR(recorder.PercentileMicros(0.5), 1000.0, 60.0);
}

TEST(LatencyRecorderTest, PercentilesOrdered) {
  LatencyRecorder recorder;
  Random rng(1);
  for (int i = 0; i < 10000; ++i) recorder.Record(1 + rng.Uniform(100000));
  const double p50 = recorder.PercentileMicros(0.50);
  const double p90 = recorder.PercentileMicros(0.90);
  const double p99 = recorder.PercentileMicros(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Uniform distribution: p50 should sit near the middle.
  EXPECT_NEAR(p50, 50000.0, 8000.0);
  EXPECT_NEAR(p90, 90000.0, 9000.0);
}

TEST(LatencyRecorderTest, MergeCombines) {
  LatencyRecorder a, b;
  for (int i = 0; i < 100; ++i) a.Record(10);
  for (int i = 0; i < 100; ++i) b.Record(100000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_GT(a.PercentileMicros(0.99), 50000.0);
  EXPECT_LT(a.PercentileMicros(0.25), 100.0);
}

// Regression: Merge used to take both recorders' locks at once (relying
// on std::scoped_lock's retry algorithm under a wrong "ordered by
// address" comment). It now snapshots `other` and folds the copy in, so
// concurrent cross-merges can never hold the two locks together. This
// must terminate — and deadlock here hangs the test runner, which the
// ctest timeout turns into a failure.
//
// A merge can at most double the larger count, so 2 x 28 merges keep it
// below 50 * 2^56 < 2^64 and the count cannot wrap. Repeating on fresh
// recorders keeps the total race volume.
TEST(LatencyRecorderTest, ConcurrentCrossMergeTerminates) {
  constexpr int kMergesPerThread = 28;
  for (int round = 0; round < 100; ++round) {
    LatencyRecorder a, b;
    for (int i = 0; i < 50; ++i) {
      a.Record(10);
      b.Record(20);
    }
    std::thread ta([&] {
      for (int i = 0; i < kMergesPerThread; ++i) a.Merge(b);
    });
    std::thread tb([&] {
      for (int i = 0; i < kMergesPerThread; ++i) b.Merge(a);
    });
    ta.join();
    tb.join();
    ASSERT_GE(a.count(), 100u);  // own 50 + at least one merge of b
    ASSERT_GE(b.count(), 100u);
    ASSERT_EQ(a.MaxMicros(), 20u);
    ASSERT_EQ(b.MaxMicros(), 20u);
  }
}

TEST(LatencyRecorderTest, MergeWithSelfIsNoop) {
  LatencyRecorder a;
  a.Record(5);
  a.Merge(a);
  EXPECT_EQ(a.count(), 1u);
}

TEST(LatencyRecorderTest, ResetClears) {
  LatencyRecorder a;
  a.Record(5);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.MaxMicros(), 0u);
}

TEST(LatencyRecorderTest, SummaryMentionsCount) {
  LatencyRecorder a;
  a.Record(1500);
  const std::string summary = a.Summary();
  EXPECT_NE(summary.find("n=1"), std::string::npos);
  EXPECT_NE(summary.find("avg="), std::string::npos);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch watch;
  // Just sanity: non-negative and monotonic.
  const auto first = watch.ElapsedMicros();
  const auto second = watch.ElapsedMicros();
  EXPECT_GE(second, first);
}

}  // namespace
}  // namespace dynamast
