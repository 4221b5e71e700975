// Checks the fault clock (FaultTimeline::enter plus its current-interval
// queries) against an independent reference: a brute-force scan of
// plan.events() with the window rule at <= t < at + duration. Every flag,
// backhaul factor, crash/disconnect start list and boundary record is
// compared at every interval, both when the clock steps one interval at a
// time (a fresh run) and when it enters each interval cold (a resume).
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "faults/fault_timeline.hpp"

namespace perdnn {
namespace {

bool active(const FaultEvent& e, int t) {
  return e.at_interval <= t && t < e.at_interval + e.duration_intervals;
}

bool ref_down(const FaultPlan& plan, FaultKind kind, std::int32_t id, int t) {
  for (const FaultEvent& e : plan.events()) {
    if (e.kind != kind || !active(e, t)) continue;
    if ((kind == FaultKind::kClientDisconnect ? e.client : e.server) == id)
      return true;
  }
  return false;
}

bool ref_backhaul_active(const FaultPlan& plan, int t) {
  for (const FaultEvent& e : plan.events())
    if (e.kind == FaultKind::kBackhaulDegrade && active(e, t)) return true;
  return false;
}

double ref_factor(const FaultPlan& plan, ServerId a, ServerId b, int t) {
  double factor = 1.0;
  for (const FaultEvent& e : plan.events()) {
    if (e.kind != FaultKind::kBackhaulDegrade || !active(e, t)) continue;
    const bool hit = (e.server == a && (e.peer == kAllServers || e.peer == b)) ||
                     (e.peer == a && e.server == b);
    if (hit) factor = std::min(factor, 1.0 - e.severity);
  }
  return factor;
}

std::vector<std::int32_t> ref_starts(const FaultPlan& plan, FaultKind kind,
                                     int t) {
  std::vector<std::int32_t> out;
  for (const FaultEvent& e : plan.events())
    if (e.kind == kind && e.at_interval == t)
      out.push_back(kind == FaultKind::kClientDisconnect ? e.client : e.server);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<obs::JournalEvent> ref_records(const FaultPlan& plan, int t) {
  std::vector<obs::JournalEvent> out;
  for (const FaultEvent& e : plan.events()) {
    const auto code = static_cast<std::int32_t>(e.kind);
    if (e.at_interval == t)
      out.push_back({.interval = t,
                     .kind = obs::JournalEventKind::kFaultApplied,
                     .client = e.client,
                     .server = e.server,
                     .peer = e.peer,
                     .detail = code,
                     .aux = e.duration_intervals,
                     .value = e.severity});
    if (e.at_interval + e.duration_intervals == t)
      out.push_back({.interval = t,
                     .kind = obs::JournalEventKind::kFaultCleared,
                     .client = e.client,
                     .server = e.server,
                     .peer = e.peer,
                     .detail = code});
  }
  return out;
}

// Compares everything the clock answers at interval `t` (the interval it
// last entered) with the brute-force reference.
void check_at(const FaultTimeline& clock, const FaultPlan& plan,
              int num_servers, int num_clients, int t,
              const std::string& mode) {
  const std::string where = mode + " interval " + std::to_string(t);
  for (ServerId s = 0; s < num_servers; ++s) {
    EXPECT_EQ(clock.server_down(s),
              ref_down(plan, FaultKind::kServerCrash, s, t))
        << where << " server " << s;
    EXPECT_EQ(clock.telemetry_down(s),
              ref_down(plan, FaultKind::kTelemetryDropout, s, t))
        << where << " server " << s;
    for (ServerId b = 0; b < num_servers; ++b) {
      if (b == s) continue;
      EXPECT_EQ(clock.backhaul_factor(s, b), ref_factor(plan, s, b, t))
          << where << " link " << s << "->" << b;
    }
  }
  for (ClientId c = 0; c < num_clients; ++c)
    EXPECT_EQ(clock.client_offline(c),
              ref_down(plan, FaultKind::kClientDisconnect, c, t))
        << where << " client " << c;
  EXPECT_EQ(clock.backhaul_active(), ref_backhaul_active(plan, t)) << where;
  EXPECT_EQ(clock.crash_starts(),
            ref_starts(plan, FaultKind::kServerCrash, t))
      << where;
  EXPECT_EQ(clock.disconnect_starts(),
            ref_starts(plan, FaultKind::kClientDisconnect, t))
      << where;
  const auto records = clock.boundary_records();
  EXPECT_EQ(std::vector<obs::JournalEvent>(records.begin(), records.end()),
            ref_records(plan, t))
      << where;
}

// Steps one clock through every interval (a few past the plan's end, so
// closing edges are exercised), then enters every interval cold: once on a
// fresh clock and once by jumping the already-advanced one back.
void check_against_reference(const FaultPlan& plan, int num_servers,
                             int num_clients, int num_intervals) {
  const int horizon = num_intervals + 8;
  FaultTimeline stepped(plan, num_servers, num_clients);
  for (int t = 0; t < horizon; ++t) {
    stepped.enter(t);
    check_at(stepped, plan, num_servers, num_clients, t, "stepped");
  }
  for (int k = 0; k < horizon; ++k) {
    FaultTimeline fresh(plan, num_servers, num_clients);
    fresh.enter(k);
    check_at(fresh, plan, num_servers, num_clients, k, "cold");
    stepped.enter(k);
    check_at(stepped, plan, num_servers, num_clients, k, "jumped");
  }
}

TEST(FaultTimelineIndex, MatchesWindowQueriesOnRandomSchedule) {
  RandomFaultConfig config;
  config.seed = 1234;
  config.num_servers = 30;
  config.num_clients = 200;
  config.num_intervals = 40;
  config.server_crash_rate = 0.02;
  config.crash_downtime_intervals = 5;
  config.backhaul_degrade_rate = 0.015;
  config.backhaul_outage_intervals = 3;
  config.telemetry_dropout_rate = 0.02;
  config.telemetry_dropout_intervals = 6;
  config.client_disconnect_rate = 0.01;
  config.client_disconnect_intervals = 4;

  FaultPlan plan = FaultPlan::random_schedule(config);
  ASSERT_FALSE(plan.empty()) << "random schedule produced no events — the "
                                "reference check would be vacuous";
  check_against_reference(plan, config.num_servers, config.num_clients,
                          config.num_intervals);
}

TEST(FaultTimelineIndex, OverlappingWindowsUnionViaCounts) {
  // Two crash windows on the same server overlap: [2,6) and [4,9). The
  // clock must report the union [2,9), not toggle off at the first
  // window's end. Same shape for telemetry, disconnects, and backhaul.
  std::vector<FaultEvent> events;
  events.push_back({.kind = FaultKind::kServerCrash,
                    .at_interval = 2,
                    .duration_intervals = 4,
                    .server = 1});
  events.push_back({.kind = FaultKind::kServerCrash,
                    .at_interval = 4,
                    .duration_intervals = 5,
                    .server = 1});
  events.push_back({.kind = FaultKind::kTelemetryDropout,
                    .at_interval = 0,
                    .duration_intervals = 3,
                    .server = 0});
  events.push_back({.kind = FaultKind::kTelemetryDropout,
                    .at_interval = 1,
                    .duration_intervals = 1,
                    .server = 0});
  events.push_back({.kind = FaultKind::kClientDisconnect,
                    .at_interval = 3,
                    .duration_intervals = 2,
                    .client = 2});
  events.push_back({.kind = FaultKind::kClientDisconnect,
                    .at_interval = 4,
                    .duration_intervals = 4,
                    .client = 2});
  events.push_back({.kind = FaultKind::kBackhaulDegrade,
                    .at_interval = 1,
                    .duration_intervals = 4,
                    .server = 0,
                    .peer = kAllServers,
                    .severity = 0.5});
  events.push_back({.kind = FaultKind::kBackhaulDegrade,
                    .at_interval = 3,
                    .duration_intervals = 5,
                    .server = 1,
                    .peer = 2,
                    .severity = 1.0});

  FaultPlan plan{std::move(events)};
  check_against_reference(plan, /*num_servers=*/3, /*num_clients=*/4, 10);

  // Spot-check the union semantics directly.
  FaultTimeline clock(plan, 3, 4);
  const auto at = [&clock](int interval) -> const FaultTimeline& {
    clock.enter(interval);
    return clock;
  };
  EXPECT_FALSE(at(1).server_down(1));
  EXPECT_TRUE(at(5).server_down(1));   // inside both windows
  EXPECT_TRUE(at(7).server_down(1));   // only the second window
  EXPECT_FALSE(at(9).server_down(1));  // exclusive end
  EXPECT_TRUE(at(4).client_offline(2));
  EXPECT_TRUE(at(7).client_offline(2));
  EXPECT_FALSE(at(8).client_offline(2));
}

TEST(FaultTimelineIndex, StartsAreDeduplicatedAndSorted) {
  // Server 2 crashes twice at interval 3 (different downtimes) and server 0
  // once; client 1 disconnects twice at interval 3 and client 0 once.
  const FaultPlan plan({
      {.kind = FaultKind::kServerCrash,
       .at_interval = 3,
       .duration_intervals = 5,
       .server = 2},
      {.kind = FaultKind::kServerCrash,
       .at_interval = 3,
       .duration_intervals = 2,
       .server = 2},
      {.kind = FaultKind::kServerCrash,
       .at_interval = 3,
       .duration_intervals = 1,
       .server = 0},
      {.kind = FaultKind::kClientDisconnect,
       .at_interval = 3,
       .duration_intervals = 2,
       .client = 1},
      {.kind = FaultKind::kClientDisconnect,
       .at_interval = 3,
       .duration_intervals = 4,
       .client = 1},
      {.kind = FaultKind::kClientDisconnect,
       .at_interval = 3,
       .duration_intervals = 1,
       .client = 0},
  });
  FaultTimeline clock(plan, /*num_servers=*/3, /*num_clients=*/2);
  clock.enter(3);
  EXPECT_EQ(clock.crash_starts(), (std::vector<ServerId>{0, 2}));
  EXPECT_EQ(clock.disconnect_starts(), (std::vector<ClientId>{0, 1}));
  clock.enter(4);
  EXPECT_TRUE(clock.crash_starts().empty());
  EXPECT_TRUE(clock.disconnect_starts().empty());
  EXPECT_TRUE(clock.server_down(2));   // the longer window still holds
  EXPECT_FALSE(clock.server_down(0));  // the one-interval window closed
}

TEST(FaultTimelineIndex, BoundaryRecordsFollowPlanOrder) {
  // At interval 4 one window clears and two open; the records must come out
  // in plan position order, whatever their kind.
  const FaultPlan plan({
      {.kind = FaultKind::kServerCrash,
       .at_interval = 1,
       .duration_intervals = 3,
       .server = 1},
      {.kind = FaultKind::kTelemetryDropout,
       .at_interval = 4,
       .duration_intervals = 2,
       .server = 0},
      {.kind = FaultKind::kServerCrash,
       .at_interval = 4,
       .duration_intervals = 1,
       .server = 2},
  });
  FaultTimeline clock(plan, /*num_servers=*/3, /*num_clients=*/1);
  clock.enter(4);
  const auto records = clock.boundary_records();
  ASSERT_EQ(records.size(), 3U);
  // Plan order: (at, kind, server) — the crash at 1, then at 4 the crash
  // (kind 0) before the dropout.
  EXPECT_EQ(records[0].kind, obs::JournalEventKind::kFaultCleared);
  EXPECT_EQ(records[0].server, 1);
  EXPECT_EQ(records[1].kind, obs::JournalEventKind::kFaultApplied);
  EXPECT_EQ(records[1].server, 2);
  EXPECT_EQ(records[2].kind, obs::JournalEventKind::kFaultApplied);
  EXPECT_EQ(records[2].server, 0);
  for (const obs::JournalEvent& r : records) EXPECT_EQ(r.interval, 4);
}

TEST(FaultTimelineIndex, EmptyTimelineHasNoEdges) {
  // Neither a default clock nor one compiled from an empty plan has any
  // edge to apply: every interval is healthy, with nothing starting and no
  // boundary records.
  FaultTimeline defaulted;
  FaultTimeline compiled(FaultPlan{}, /*num_servers=*/4, /*num_clients=*/8);
  for (FaultTimeline* clock : {&defaulted, &compiled}) {
    EXPECT_TRUE(clock->empty());
    for (int t : {0, 1, 7, 3}) {
      clock->enter(t);
      for (ServerId s = 0; s < 4; ++s) {
        EXPECT_FALSE(clock->server_down(s));
        EXPECT_FALSE(clock->telemetry_down(s));
        EXPECT_DOUBLE_EQ(clock->backhaul_factor(s, (s + 1) % 4), 1.0);
      }
      for (ClientId c = 0; c < 8; ++c) EXPECT_FALSE(clock->client_offline(c));
      EXPECT_FALSE(clock->backhaul_active());
      EXPECT_TRUE(clock->crash_starts().empty());
      EXPECT_TRUE(clock->disconnect_starts().empty());
      EXPECT_TRUE(clock->boundary_records().empty());
    }
  }
}

}  // namespace
}  // namespace perdnn
