#include "faults/fault_plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "faults/fault_timeline.hpp"

namespace perdnn {
namespace {

FaultEvent crash(ServerId server, int at, int duration) {
  return {.kind = FaultKind::kServerCrash,
          .at_interval = at,
          .duration_intervals = duration,
          .server = server};
}

TEST(FaultPlanTest, ValidatesEventsOnConstruction) {
  EXPECT_THROW(FaultPlan({crash(0, -1, 2)}), std::logic_error);
  EXPECT_THROW(FaultPlan({crash(0, 3, 0)}), std::logic_error);
  EXPECT_THROW(FaultPlan({crash(kNoServer, 3, 2)}), std::logic_error);
  EXPECT_THROW(FaultPlan({{.kind = FaultKind::kClientDisconnect,
                           .at_interval = 0,
                           .client = -1}}),
               std::logic_error);
  EXPECT_THROW(FaultPlan({{.kind = FaultKind::kBackhaulDegrade,
                           .at_interval = 0,
                           .server = 1,
                           .peer = 1}}),
               std::logic_error);
  EXPECT_THROW(FaultPlan({{.kind = FaultKind::kBackhaulDegrade,
                           .at_interval = 0,
                           .server = 1,
                           .peer = 2,
                           .severity = 1.5}}),
               std::logic_error);
  EXPECT_NO_THROW(FaultPlan({crash(0, 0, 1)}));
}

TEST(FaultPlanTest, SortsEventsCanonically) {
  const FaultPlan plan({crash(2, 5, 1), crash(1, 5, 1), crash(0, 2, 3)});
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0], crash(0, 2, 3));
  EXPECT_EQ(plan.events()[1], crash(1, 5, 1));
  EXPECT_EQ(plan.events()[2], crash(2, 5, 1));

  // The same event set in any order yields an identical plan.
  const FaultPlan shuffled({crash(1, 5, 1), crash(0, 2, 3), crash(2, 5, 1)});
  EXPECT_EQ(plan.events(), shuffled.events());
}

TEST(FaultPlanTest, JsonRoundTripsExactly) {
  const FaultPlan plan({
      crash(3, 2, 4),
      {.kind = FaultKind::kBackhaulDegrade,
       .at_interval = 1,
       .duration_intervals = 6,
       .server = 0,
       .peer = 2,
       .severity = 0.75},
      {.kind = FaultKind::kBackhaulDegrade,
       .at_interval = 4,
       .duration_intervals = 2,
       .server = 1,
       .peer = kAllServers,
       .severity = 1.0},
      {.kind = FaultKind::kTelemetryDropout,
       .at_interval = 0,
       .duration_intervals = 8,
       .server = 2},
      {.kind = FaultKind::kClientDisconnect,
       .at_interval = 5,
       .duration_intervals = 3,
       .client = 7},
  });
  const FaultPlan reparsed = FaultPlan::from_json(plan.to_json());
  EXPECT_EQ(plan.events(), reparsed.events());
  // Serialisation is canonical: round-tripping is a fixed point.
  EXPECT_EQ(plan.to_json(), reparsed.to_json());
}

TEST(FaultPlanTest, FromJsonRejectsUnknownMembersAndKinds) {
  EXPECT_THROW(FaultPlan::from_json("{}"), std::logic_error);
  EXPECT_THROW(
      FaultPlan::from_json(
          R"({"events":[{"kind":"meteor_strike","at":0,"server":0}]})"),
      std::logic_error);
  EXPECT_THROW(
      FaultPlan::from_json(
          R"({"events":[{"kind":"server_crash","at":0,"server":0,"x":1}]})"),
      std::logic_error);
  EXPECT_THROW(FaultPlan::from_json(R"({"events":[{"at":0,"server":0}]})"),
               std::logic_error);
  const FaultPlan ok = FaultPlan::from_json(
      R"({"events":[{"kind":"server_crash","at":3,"duration":2,"server":1}]})");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok.events()[0], crash(1, 3, 2));
}

TEST(FaultPlanTest, CheckBoundsNamesOffendingEvent) {
  const FaultPlan plan({crash(5, 0, 1)});
  EXPECT_NO_THROW(plan.check_bounds(6, 0));
  EXPECT_THROW(plan.check_bounds(5, 0), std::logic_error);
  const FaultPlan churn({{.kind = FaultKind::kClientDisconnect,
                          .at_interval = 0,
                          .client = 3}});
  EXPECT_NO_THROW(churn.check_bounds(1, 4));
  EXPECT_THROW(churn.check_bounds(1, 3), std::logic_error);
}

TEST(FaultPlanTest, LegacyCrashesMatchesHistoricalRecursion) {
  // rate 1.0: every server crashes at interval 0, stays down for the
  // downtime, and crashes again the moment it recovers — the exact shape of
  // the old inject_failures loop.
  const FaultPlan plan = FaultPlan::legacy_crashes(
      /*failure_rate=*/1.0, /*downtime_intervals=*/3, /*num_servers=*/2,
      /*num_intervals=*/7, /*seed=*/9);
  std::vector<FaultEvent> expected;
  for (int at : {0, 3, 6})
    for (ServerId s : {0, 1}) expected.push_back(crash(s, at, 3));
  EXPECT_EQ(plan.events(), FaultPlan(expected).events());

  // Seeded: the same knobs replay the same schedule; rate 0 is empty.
  EXPECT_EQ(FaultPlan::legacy_crashes(0.3, 2, 4, 50, 7).to_json(),
            FaultPlan::legacy_crashes(0.3, 2, 4, 50, 7).to_json());
  EXPECT_TRUE(FaultPlan::legacy_crashes(0.0, 3, 4, 50, 7).empty());

  // A down server draws nothing: no crash window ever overlaps another on
  // the same server.
  const FaultPlan dense = FaultPlan::legacy_crashes(0.5, 4, 3, 100, 11);
  std::vector<int> last_end(3, 0);
  for (const FaultEvent& e : dense.events()) {
    EXPECT_GE(e.at_interval, last_end[static_cast<std::size_t>(e.server)]);
    last_end[static_cast<std::size_t>(e.server)] =
        e.at_interval + e.duration_intervals;
  }
}

TEST(FaultPlanTest, RandomScheduleIsSeededAndBounded) {
  RandomFaultConfig config;
  config.seed = 13;
  config.num_servers = 6;
  config.num_clients = 10;
  config.num_intervals = 80;
  config.server_crash_rate = 0.05;
  config.backhaul_degrade_rate = 0.05;
  config.telemetry_dropout_rate = 0.05;
  config.client_disconnect_rate = 0.05;
  const FaultPlan a = FaultPlan::random_schedule(config);
  const FaultPlan b = FaultPlan::random_schedule(config);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.events(), b.events());
  EXPECT_NO_THROW(a.check_bounds(config.num_servers, config.num_clients));

  config.seed = 14;
  EXPECT_NE(FaultPlan::random_schedule(config).to_json(), a.to_json());

  RandomFaultConfig quiet = config;
  quiet.server_crash_rate = 0.0;
  quiet.backhaul_degrade_rate = 0.0;
  quiet.telemetry_dropout_rate = 0.0;
  quiet.client_disconnect_rate = 0.0;
  EXPECT_TRUE(FaultPlan::random_schedule(quiet).empty());

  EXPECT_THROW(
      [] {
        RandomFaultConfig bad;
        bad.num_servers = 2;
        bad.num_intervals = 5;
        bad.server_crash_rate = 1.5;
        return FaultPlan::random_schedule(bad);
      }(),
      std::logic_error);
}

TEST(FaultTimelineTest, AnswersPerIntervalQueries) {
  const FaultPlan plan({
      crash(1, 3, 4),  // down during [3, 7)
      {.kind = FaultKind::kBackhaulDegrade,
       .at_interval = 2,
       .duration_intervals = 3,
       .server = 0,
       .peer = 2,
       .severity = 0.6},
      {.kind = FaultKind::kBackhaulDegrade,
       .at_interval = 2,
       .duration_intervals = 3,
       .server = 0,
       .peer = kAllServers,
       .severity = 0.25},
      {.kind = FaultKind::kTelemetryDropout,
       .at_interval = 1,
       .duration_intervals = 2,
       .server = 2},
      {.kind = FaultKind::kClientDisconnect,
       .at_interval = 4,
       .duration_intervals = 2,
       .client = 0},
  });
  FaultTimeline timeline(plan, /*num_servers=*/3, /*num_clients=*/2);
  // Queries read the interval last entered; `at` jumps the clock anywhere,
  // forwards or back.
  const auto at = [&timeline](int interval) -> const FaultTimeline& {
    timeline.enter(interval);
    return timeline;
  };

  EXPECT_FALSE(at(2).server_down(1));
  EXPECT_TRUE(at(3).server_down(1));
  EXPECT_TRUE(at(6).server_down(1));
  EXPECT_FALSE(at(7).server_down(1));
  EXPECT_EQ(at(3).crash_starts(), std::vector<ServerId>{1});
  EXPECT_TRUE(at(4).crash_starts().empty());

  EXPECT_TRUE(at(1).telemetry_down(2));
  EXPECT_FALSE(at(3).telemetry_down(2));
  EXPECT_FALSE(at(1).telemetry_down(0));

  EXPECT_TRUE(at(4).client_offline(0));
  EXPECT_FALSE(at(6).client_offline(0));
  EXPECT_FALSE(at(4).client_offline(1));
  EXPECT_EQ(at(4).disconnect_starts(), std::vector<ClientId>{0});

  // Worst overlapping event wins; the wildcard covers every link of 0; the
  // pair event is mirrored onto both endpoints.
  EXPECT_DOUBLE_EQ(at(2).backhaul_factor(0, 2), 0.4);
  EXPECT_DOUBLE_EQ(at(2).backhaul_factor(2, 0), 0.4);
  EXPECT_DOUBLE_EQ(at(2).backhaul_factor(0, 1), 0.75);
  EXPECT_DOUBLE_EQ(at(2).backhaul_factor(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(at(5).backhaul_factor(0, 2), 1.0);
  EXPECT_TRUE(at(2).backhaul_active());
  EXPECT_FALSE(at(5).backhaul_active());

  // Empty timelines answer "healthy" everywhere.
  FaultTimeline empty;
  empty.enter(0);
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.server_down(0));
  EXPECT_DOUBLE_EQ(empty.backhaul_factor(0, 1), 1.0);
  EXPECT_TRUE(empty.crash_starts().empty());

  EXPECT_THROW(FaultTimeline(plan, 2, 2), std::logic_error);
  EXPECT_THROW(FaultTimeline(plan, 3, 0), std::logic_error);
}

}  // namespace
}  // namespace perdnn
