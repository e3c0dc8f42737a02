// Tests of the benchmark's own logic: the seeded inputs, nearest-rank
// percentiles and span self time.

#include "loadgen.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "span_trace.h"

namespace perfbench {
namespace {

TEST(Schedule, PoissonIsAPureFunctionOfTheSeed) {
  const std::vector<double> a = PoissonSchedule(500, 100.0, 7);
  EXPECT_EQ(a, PoissonSchedule(500, 100.0, 7));
  EXPECT_NE(a, PoissonSchedule(500, 100.0, 8));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.front(), 0.0);
  // 500 arrivals at 100/s span about 5 s.
  EXPECT_NEAR(a.back(), 5.0, 1.0);
}

TEST(Schedule, ShuffledOrderIsASeededPermutation) {
  const std::vector<std::size_t> a = ShuffledOrder(1182, 3);
  EXPECT_EQ(a, ShuffledOrder(1182, 3));
  EXPECT_NE(a, ShuffledOrder(1182, 4));
  std::vector<std::size_t> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Schedule, StreamsOfOneSeedDiffer) {
  EXPECT_NE(StreamSeed(1, 1), StreamSeed(1, 2));
  EXPECT_NE(StreamSeed(1, 1), StreamSeed(2, 1));
  EXPECT_EQ(StreamSeed(5, 2), StreamSeed(5, 2));
}

TEST(Schedule, ZipfDrawStaysInItsHotSetAndFavoursTheHead) {
  const std::vector<std::size_t> a = ZipfHotDraw(1182, 64, 1182, 1.0, 11);
  EXPECT_EQ(a, ZipfHotDraw(1182, 64, 1182, 1.0, 11));
  EXPECT_NE(a, ZipfHotDraw(1182, 64, 1182, 1.0, 12));
  const std::set<std::size_t> distinct(a.begin(), a.end());
  EXPECT_LE(distinct.size(), 64u);
  EXPECT_GT(distinct.size(), 32u);
  for (std::size_t v : a) EXPECT_LT(v, 1182u);
  // The most frequent question is asked far more than a uniform 1/64.
  std::size_t top = 0;
  for (std::size_t v : distinct) {
    top = std::max<std::size_t>(top, std::count(a.begin(), a.end(), v));
  }
  EXPECT_GT(top, 1182u / 64u * 4u);
}

TEST(Percentiles, NearestRankReportsItsEvidence) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  std::reverse(samples.begin(), samples.end());
  const Percentile p99 = NearestRank(samples, 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  const Percentile p50 = NearestRank(samples, 0.5);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
  EXPECT_EQ(NearestRank({4.0}, 0.99).value, 4.0);
  EXPECT_EQ(NearestRank({}, 0.5).samples, 0u);
}

TEST(Percentiles, TiesAreNotCountedBeyond) {
  const Percentile p = NearestRank({1, 2, 2, 2, 3}, 0.5);
  EXPECT_EQ(p.value, 2.0);
  EXPECT_EQ(p.beyond, 1u);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const Interval parent{0, 100};
  EXPECT_EQ(SelfTime(parent, {}), 100.0);
  EXPECT_EQ(SelfTime(parent, {{10, 20}, {30, 50}}), 70.0);
  // Overlapping children count once.
  EXPECT_EQ(SelfTime(parent, {{10, 40}, {30, 50}}), 60.0);
  // Nested child inside another.
  EXPECT_EQ(SelfTime(parent, {{10, 60}, {20, 30}}), 50.0);
  // Children are clipped to the parent.
  EXPECT_EQ(SelfTime(parent, {{-10, 10}, {90, 120}}), 80.0);
  EXPECT_EQ(SelfTime(parent, {{200, 300}}), 100.0);
}

TEST(Llm, PromptsAreClassifiedByTheirTask) {
  using gred::llm::ChatMessage;
  auto prompt = [](const char* text) {
    return gred::llm::Prompt{{ChatMessage::Role::kSystem, "x"},
                             {ChatMessage::Role::kUser, text}};
  };
  EXPECT_EQ(ClassifyPrompt(prompt("Generate DVQs based on ...")),
            LlmStage::kGenerate);
  EXPECT_EQ(ClassifyPrompt(prompt("mimic the style of the Reference DVQs")),
            LlmStage::kRetune);
  EXPECT_EQ(ClassifyPrompt(prompt("replace the column names")),
            LlmStage::kDebug);
  EXPECT_EQ(ClassifyPrompt(prompt("hello")), LlmStage::kOther);
}

}  // namespace
}  // namespace perfbench
