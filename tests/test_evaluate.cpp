#include "algorithms/evaluate.hpp"

#include <array>
#include <cstdint>

#include <gtest/gtest.h>

namespace pmware::algorithms {
namespace {

TruthVisit tv(world::PlaceId place, SimTime begin, SimTime end) {
  return {place, TimeWindow{begin, end}};
}

ReportedVisit rv(std::size_t place, SimTime begin, SimTime end) {
  return {place, TimeWindow{begin, end}};
}

TEST(Evaluate, PerfectMatchIsCorrect) {
  const std::vector<TruthVisit> truth{tv(1, 0, hours(2)), tv(2, hours(3), hours(5))};
  const std::vector<ReportedVisit> reported{rv(10, 0, hours(2)),
                                            rv(11, hours(3), hours(5))};
  const PlaceEvaluation eval = evaluate_places(truth, reported);
  EXPECT_EQ(eval.evaluable(), 2u);
  EXPECT_EQ(eval.count(PlaceOutcome::Correct), 2u);
  const DiscoveredEvaluation disc = evaluate_discovered(truth, reported);
  EXPECT_EQ(disc.count(DiscoveredOutcome::Correct), 2u);
}

TEST(Evaluate, OneDiscoveredCoveringTwoTruthsIsMerged) {
  const std::vector<TruthVisit> truth{tv(1, 0, hours(2)), tv(2, hours(3), hours(5))};
  const std::vector<ReportedVisit> reported{rv(10, 0, hours(5))};
  const PlaceEvaluation eval = evaluate_places(truth, reported);
  EXPECT_EQ(eval.count(PlaceOutcome::Merged), 2u);
  const DiscoveredEvaluation disc = evaluate_discovered(truth, reported);
  EXPECT_EQ(disc.count(DiscoveredOutcome::Merged), 1u);
  EXPECT_EQ(disc.outcomes.at(10), DiscoveredOutcome::Merged);
}

TEST(Evaluate, TwoDiscoveredCoveringOneTruthIsDivided) {
  const std::vector<TruthVisit> truth{tv(1, 0, hours(4))};
  const std::vector<ReportedVisit> reported{rv(10, 0, hours(2)),
                                            rv(11, hours(2), hours(4))};
  const PlaceEvaluation eval = evaluate_places(truth, reported);
  EXPECT_EQ(eval.count(PlaceOutcome::Divided), 1u);
  const DiscoveredEvaluation disc = evaluate_discovered(truth, reported);
  EXPECT_EQ(disc.count(DiscoveredOutcome::Divided), 2u);
}

TEST(Evaluate, UndetectedTruthIsMissed) {
  const std::vector<TruthVisit> truth{tv(1, 0, hours(2)), tv(2, hours(3), hours(5))};
  const std::vector<ReportedVisit> reported{rv(10, 0, hours(2))};
  const PlaceEvaluation eval = evaluate_places(truth, reported);
  EXPECT_EQ(eval.count(PlaceOutcome::Missed), 1u);
  EXPECT_EQ(eval.outcomes.at(2), PlaceOutcome::Missed);
}

TEST(Evaluate, DiscoveredWithoutTruthIsSpurious) {
  const std::vector<TruthVisit> truth{tv(1, 0, hours(2))};
  const std::vector<ReportedVisit> reported{rv(10, 0, hours(2)),
                                            rv(99, hours(10), hours(12))};
  const DiscoveredEvaluation disc = evaluate_discovered(truth, reported);
  EXPECT_EQ(disc.outcomes.at(99), DiscoveredOutcome::Spurious);
  EXPECT_EQ(disc.count(DiscoveredOutcome::Spurious), 1u);
  // Spurious places are excluded from the reported fractions.
  EXPECT_DOUBLE_EQ(disc.fraction(DiscoveredOutcome::Correct), 1.0);
}

TEST(Evaluate, ShortTruthVisitsAreNotEvaluable) {
  EvalConfig config;
  config.min_truth_dwell = minutes(10);
  const std::vector<TruthVisit> truth{tv(1, 0, minutes(5))};
  const std::vector<ReportedVisit> reported{rv(10, 0, minutes(5))};
  const PlaceEvaluation eval = evaluate_places(truth, reported, config);
  EXPECT_EQ(eval.evaluable(), 0u);
}

TEST(Evaluate, LinkRequiresMinimumSingleVisitOverlap) {
  EvalConfig config;
  config.min_link_overlap = minutes(15);
  // 10-minute boundary sliver every day for 14 days: never links.
  std::vector<TruthVisit> truth;
  std::vector<ReportedVisit> reported;
  for (int day = 0; day < 14; ++day) {
    truth.push_back(tv(1, start_of_day(day), start_of_day(day) + hours(8)));
    reported.push_back(rv(10, start_of_day(day), start_of_day(day) + hours(8)));
    // Sliver place overlapping the tail by 10 minutes each day.
    reported.push_back(rv(11, start_of_day(day) + hours(8) - minutes(10),
                          start_of_day(day) + hours(9)));
  }
  const PlaceEvaluation eval = evaluate_places(truth, reported, config);
  EXPECT_EQ(eval.outcomes.at(1), PlaceOutcome::Correct);
  const DiscoveredEvaluation disc = evaluate_discovered(truth, reported, config);
  EXPECT_EQ(disc.outcomes.at(10), DiscoveredOutcome::Correct);
  EXPECT_EQ(disc.outcomes.at(11), DiscoveredOutcome::Spurious);
}

TEST(Evaluate, RepeatVisitsAccumulateIntoOneOutcome) {
  std::vector<TruthVisit> truth;
  std::vector<ReportedVisit> reported;
  for (int day = 0; day < 5; ++day) {
    truth.push_back(tv(1, start_of_day(day), start_of_day(day) + hours(8)));
    reported.push_back(rv(10, start_of_day(day) + minutes(5),
                          start_of_day(day) + hours(8) - minutes(5)));
  }
  const PlaceEvaluation eval = evaluate_places(truth, reported);
  EXPECT_EQ(eval.evaluable(), 1u);
  EXPECT_EQ(eval.outcomes.at(1), PlaceOutcome::Correct);
  const DiscoveredEvaluation disc = evaluate_discovered(truth, reported);
  EXPECT_EQ(disc.outcomes.size(), 1u);
}

TEST(Evaluate, FractionsOfDetected) {
  const std::vector<TruthVisit> truth{
      tv(1, 0, hours(2)),                 // correct
      tv(2, hours(3), hours(5)),          // merged (with 3)
      tv(3, hours(5), hours(7)),          // merged
      tv(4, hours(10), hours(12)),        // missed
  };
  const std::vector<ReportedVisit> reported{
      rv(10, 0, hours(2)),
      rv(11, hours(3), hours(7)),
  };
  const PlaceEvaluation eval = evaluate_places(truth, reported);
  EXPECT_EQ(eval.evaluable(), 4u);
  EXPECT_EQ(eval.count(PlaceOutcome::Correct), 1u);
  EXPECT_EQ(eval.count(PlaceOutcome::Merged), 2u);
  EXPECT_EQ(eval.count(PlaceOutcome::Missed), 1u);
  EXPECT_DOUBLE_EQ(eval.fraction_of_detected(PlaceOutcome::Correct), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(eval.fraction_of_evaluable(PlaceOutcome::Correct), 0.25);
  EXPECT_DOUBLE_EQ(eval.fraction_of_detected(PlaceOutcome::Missed), 0.0);
}

TEST(Evaluate, SummaryStringsMentionCounts) {
  const std::vector<TruthVisit> truth{tv(1, 0, hours(2))};
  const std::vector<ReportedVisit> reported{rv(10, 0, hours(2))};
  EXPECT_NE(evaluate_places(truth, reported).summary().find("correct 1"),
            std::string::npos);
  EXPECT_NE(evaluate_discovered(truth, reported).summary().find("correct 1"),
            std::string::npos);
}

TEST(Evaluate, EmptyInputs) {
  const PlaceEvaluation eval = evaluate_places({}, {});
  EXPECT_EQ(eval.evaluable(), 0u);
  EXPECT_DOUBLE_EQ(eval.fraction_of_detected(PlaceOutcome::Correct), 0.0);
  const DiscoveredEvaluation disc = evaluate_discovered({}, {});
  EXPECT_TRUE(disc.outcomes.empty());
  EXPECT_DOUBLE_EQ(disc.fraction(DiscoveredOutcome::Correct), 0.0);
}

TEST(Evaluate, OutcomeNames) {
  EXPECT_STREQ(to_string(PlaceOutcome::Correct), "correct");
  EXPECT_STREQ(to_string(PlaceOutcome::Merged), "merged");
  EXPECT_STREQ(to_string(PlaceOutcome::Divided), "divided");
  EXPECT_STREQ(to_string(PlaceOutcome::Missed), "missed");
  EXPECT_STREQ(to_string(DiscoveredOutcome::Spurious), "spurious");
}

struct ThresholdCase {
  SimDuration overlap;
  bool linked;
  // gtest prints this struct byte by byte into each case's ctest name. The
  // padding after `linked` is named so it is zeroed; left implicit it held
  // stack garbage and the names changed from run to run.
  std::array<std::uint8_t, 7> padding{};
};

class LinkThresholdSweep : public ::testing::TestWithParam<ThresholdCase> {};

TEST_P(LinkThresholdSweep, LinkExactlyAtThreshold) {
  EvalConfig config;
  config.min_link_overlap = minutes(15);
  const auto& c = GetParam();
  const std::vector<TruthVisit> truth{tv(1, 0, hours(4))};
  const std::vector<ReportedVisit> reported{rv(10, 0, c.overlap)};
  const PlaceEvaluation eval = evaluate_places(truth, reported, config);
  EXPECT_EQ(eval.outcomes.at(1) == PlaceOutcome::Correct, c.linked);
}

INSTANTIATE_TEST_SUITE_P(
    Overlaps, LinkThresholdSweep,
    ::testing::Values(ThresholdCase{minutes(14), false},
                      ThresholdCase{minutes(15), true},
                      ThresholdCase{minutes(16), true},
                      ThresholdCase{minutes(1), false},
                      ThresholdCase{hours(4), true}));

}  // namespace
}  // namespace pmware::algorithms
