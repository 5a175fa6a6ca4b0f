// Tests for the bench flag parser (bench/harness.h): malformed input is
// an error naming the flag, never a crash, a hang or a silent zero.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/harness.h"

namespace dynamast::bench {
namespace {

const std::vector<std::string> kFigures = {"E1", "E7", "E12"};

Status Parse(std::vector<std::string> args, BenchConfig* config) {
  return ParseFlags(args, kFigures, config);
}

TEST(BenchFlagsTest, AcceptsFullFlagSet) {
  BenchConfig config;
  ASSERT_TRUE(Parse({"--figure=E7,E12", "--seconds=0.5", "--warmup=0",
                     "--clients=8", "--sites=3", "--scale=0.1",
                     "--latency_us=50", "--read_us=0", "--write_us=50",
                     "--apply_us=20", "--slots=2", "--seed=7",
                     "--systems=dynamast,leap", "--metrics-out=m.json",
                     "--trace-out=t.json", "--history-out=h.txt",
                     "--timeline-out=tl.jsonl", "--timeline-period-ms=50"},
                    &config)
                  .ok());
  EXPECT_EQ(config.figures, (std::vector<std::string>{"E7", "E12"}));
  EXPECT_DOUBLE_EQ(config.seconds, 0.5);
  EXPECT_DOUBLE_EQ(config.warmup, 0.0);
  EXPECT_EQ(config.clients, 8u);
  EXPECT_EQ(config.sites, 3u);
  EXPECT_DOUBLE_EQ(config.scale, 0.1);
  EXPECT_EQ(config.latency_us, 50u);
  EXPECT_EQ(config.read_us, 0u);
  EXPECT_EQ(config.write_us, 50u);
  EXPECT_EQ(config.apply_us, 20u);
  EXPECT_EQ(config.slots, 2u);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.systems,
            (std::vector<workloads::SystemKind>{
                workloads::SystemKind::kDynaMast,
                workloads::SystemKind::kLeap}));
  EXPECT_EQ(config.metrics_out, "m.json");
  EXPECT_EQ(config.trace_out, "t.json");
  EXPECT_EQ(config.history_out, "h.txt");
  EXPECT_EQ(config.timeline_out, "tl.jsonl");
  EXPECT_EQ(config.timeline_period_ms, 50u);
  EXPECT_FALSE(config.help);
}

TEST(BenchFlagsTest, AllExpandsToEveryFigure) {
  BenchConfig config;
  ASSERT_TRUE(Parse({"--figure=all"}, &config).ok());
  EXPECT_EQ(config.figures, kFigures);
}

TEST(BenchFlagsTest, HelpNeedsNoFigure) {
  BenchConfig config;
  ASSERT_TRUE(Parse({"--help"}, &config).ok());
  EXPECT_TRUE(config.help);
}

TEST(BenchFlagsTest, RejectsMalformedInput) {
  const std::vector<std::vector<std::string>> rejected = {
      {"--figure=E7", "--clients=abc"},   // non-numeric (used to run 0)
      {"--figure=E7", "--clients=8x"},    // trailing garbage
      {"--figure=E7", "--clients=-1"},    // negative count
      {"--figure=E7", "--clients="},      // empty value
      {"--figure=E7", "--seconds=1s"},
      {"--figure=E7", "--scale=abc"},
      {"--figure=E7", "--seed=1.5"},
      {"--figure=E7", "--sites=99999999999"},  // past uint32
      {"--figure=E7", "--sites=0"},       // used to die with SIGFPE
      {"--figure=E7", "--clients=0"},
      {"--figure=E7", "--slots=0"},       // used to hang
      {"--figure=E7", "--seconds=0"},
      {"--figure=E7", "--seconds=-1"},
      {"--figure=E7", "--timeline-period-ms=0"},
      {"--figure=E7", "--systems="},      // empty list
      {"--figure=E7", "--systems=dynamast,"},  // empty entry
      {"--figure=E7", "--systems=dynamast,paxos"},
      {"--figure="},
      {"--figure=E7,,E12"},
      {"--figure=E99"},
      {"--clients=8"},                    // no figure to run
      {"--figure=E7", "--bogus=1"},
      {"--figure=E7", "stray"},
  };
  for (const std::vector<std::string>& args : rejected) {
    BenchConfig config;
    const Status s = Parse(args, &config);
    EXPECT_FALSE(s.ok()) << args.back();
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << args.back();
  }
}

}  // namespace
}  // namespace dynamast::bench
