#include "edge/migration_dispatcher.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <stdexcept>
#include <vector>

namespace perdnn {
namespace {

using Kind = obs::JournalEventKind;

std::vector<ClientId> clients_of(
    const std::vector<PrefixDispatcher::Order>& orders) {
  std::vector<ClientId> out;
  for (const PrefixDispatcher::Order& order : orders)
    out.push_back(order.client);
  return out;
}

TEST(MigrationDispatcherTest, ValidatesConfig) {
  EXPECT_THROW(LayerDispatcher({.max_attempts = 0}, 1), std::logic_error);
  EXPECT_THROW(LayerDispatcher({.initial_backoff_intervals = 0}, 1),
               std::logic_error);
  EXPECT_THROW(LayerDispatcher({.initial_backoff_intervals = 8,
                                .max_backoff_intervals = 4},
                               1),
               std::logic_error);
  EXPECT_THROW(PrefixDispatcher({}, 1, /*per_source_cap=*/0),
               std::logic_error);
  EXPECT_NO_THROW(LayerDispatcher({}, 1));
}

TEST(MigrationDispatcherTest, BackoffDoublesPerFailureUpToTheCap) {
  LayerDispatcher dispatcher(
      {.max_attempts = 6, .initial_backoff_intervals = 1,
       .max_backoff_intervals = 4},
      2);
  dispatcher.defer(/*client=*/0, /*source=*/0, /*target=*/1, {2, 3},
                   /*bytes=*/100, /*now_interval=*/10);

  // First retry after the initial backoff: due at 11, not 10.
  EXPECT_TRUE(dispatcher.take_due(10).empty());
  auto due = dispatcher.take_due(11);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].attempts, 2);
  EXPECT_EQ(due[0].payload, (std::vector<LayerId>{2, 3}));

  // Each failure doubles the wait: 1, 2, 4, then capped at 4.
  int expected_backoff = 2;
  int now = 11;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(dispatcher.fail(std::move(due[0]), now));
    EXPECT_TRUE(dispatcher.take_due(now + expected_backoff - 1).empty());
    due = dispatcher.take_due(now + expected_backoff);
    ASSERT_EQ(due.size(), 1u);
    now += expected_backoff;
    expected_backoff = std::min(expected_backoff * 2, 4);
  }
  EXPECT_EQ(due[0].attempts, 5);
  EXPECT_EQ(dispatcher.backoff_after(1), 1);
  EXPECT_EQ(dispatcher.backoff_after(2), 2);
  EXPECT_EQ(dispatcher.backoff_after(3), 4);
  EXPECT_EQ(dispatcher.backoff_after(9), 4);
}

TEST(MigrationDispatcherTest, BackoffSaturatesWithoutOverflow) {
  // A cap of INT_MAX: doubling past 2^30 and adding the backoff to `now`
  // would both overflow a plain int. The backoff saturates at the cap and
  // the deadline at INT_MAX.
  PrefixDispatcher dispatcher({.max_attempts = INT_MAX,
                               .initial_backoff_intervals = 1,
                               .max_backoff_intervals = INT_MAX},
                              2);
  EXPECT_EQ(dispatcher.backoff_after(31), 1 << 30);
  EXPECT_EQ(dispatcher.backoff_after(32), INT_MAX);
  EXPECT_EQ(dispatcher.backoff_after(1000), INT_MAX);

  ASSERT_TRUE(dispatcher.fail(
      {.client = 0, .source = 0, .target = 1, .bytes = 5, .attempts = 40},
      /*now_interval=*/1000));
  ASSERT_EQ(dispatcher.state().queue.size(), 1u);
  EXPECT_EQ(dispatcher.state().queue[0].next_attempt_interval, INT_MAX);
  EXPECT_TRUE(dispatcher.take_due(INT_MAX - 1).empty());
  EXPECT_EQ(dispatcher.take_due(INT_MAX).size(), 1u);
}

TEST(MigrationDispatcherTest, AbandonsAfterAttemptBudgetAndTracksBytes) {
  LayerDispatcher dispatcher(
      {.max_attempts = 3, .initial_backoff_intervals = 1,
       .max_backoff_intervals = 16},
      4);
  EXPECT_TRUE(dispatcher.defer(0, 0, 1, {5}, 40, 0));
  EXPECT_TRUE(dispatcher.defer(1, 2, 3, {6}, 60, 0));
  EXPECT_EQ(dispatcher.backlog_bytes(), 100);
  EXPECT_EQ(dispatcher.backlog_orders(), 2);
  EXPECT_EQ(dispatcher.tallies().deferred_bytes, 100);
  EXPECT_EQ(dispatcher.tallies().deferred_orders, 2);

  // Attempt 2 for both: one is delivered (not re-parked), one fails.
  auto due = dispatcher.take_due(1);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(dispatcher.backlog_bytes(), 0);  // popped orders leave the backlog
  EXPECT_EQ(dispatcher.tallies().retries, 2);
  EXPECT_TRUE(dispatcher.fail(std::move(due[1]), 1));
  EXPECT_EQ(dispatcher.backlog_bytes(), 60);

  // Attempt 3 fails too: the budget is spent, the order is abandoned.
  due = dispatcher.take_due(10);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].attempts, 3);
  EXPECT_FALSE(dispatcher.fail(std::move(due[0]), 10));
  EXPECT_EQ(dispatcher.backlog_bytes(), 0);
  EXPECT_EQ(dispatcher.backlog_orders(), 0);
  EXPECT_EQ(dispatcher.tallies().abandoned_bytes, 60);
  EXPECT_EQ(dispatcher.tallies().abandoned_orders, 1);
  EXPECT_EQ(dispatcher.tallies().deferred_bytes, 100);
}

TEST(MigrationDispatcherTest, MaxAttemptsOneAbandonsImmediately) {
  // With no retry budget the order is never parked, so it is abandoned
  // without ever counting as deferred.
  LayerDispatcher dispatcher({.max_attempts = 1}, 2);
  EXPECT_FALSE(dispatcher.defer(0, 0, 1, {2}, 25, 0));
  EXPECT_EQ(dispatcher.backlog_orders(), 0);
  EXPECT_EQ(dispatcher.backlog_bytes(), 0);
  EXPECT_EQ(dispatcher.tallies().abandoned_orders, 1);
  EXPECT_EQ(dispatcher.tallies().abandoned_bytes, 25);
  EXPECT_EQ(dispatcher.tallies().deferred_orders, 0);
  EXPECT_EQ(dispatcher.tallies().deferred_bytes, 0);
  EXPECT_TRUE(dispatcher.take_due(100).empty());
}

TEST(MigrationDispatcherTest, DueIsFifoStable) {
  PrefixDispatcher dispatcher({}, 3);
  dispatcher.defer(0, 2, 1, 1, 10, 0);
  dispatcher.defer(1, 0, 1, 2, 10, 0);
  dispatcher.defer(2, 1, 0, 3, 10, 0);
  dispatcher.defer(3, 0, 2, 4, 10, 0);
  const auto due = dispatcher.take_due(5);
  EXPECT_EQ(clients_of(due), (std::vector<ClientId>{0, 1, 2, 3}));
  EXPECT_EQ(due[3].payload, 4);
}

TEST(MigrationDispatcherTest, SortBySourceGivesSourceThenFifoOrder) {
  PrefixDispatcher dispatcher({.max_attempts = 10,
                               .initial_backoff_intervals = 1,
                               .max_backoff_intervals = 16},
                              2);
  // A (source 0) is parked first and fails twice, ending with a deadline of
  // 7. B (source 1) and C (source 0) are parked after it and re-parked once,
  // so they come due at 6 — before the older A.
  dispatcher.defer(/*client=*/0, /*source=*/0, 1, 0, 10, 0);  // A
  auto due = dispatcher.take_due(1);
  ASSERT_TRUE(dispatcher.fail(due[0], 1));  // due 3
  due = dispatcher.take_due(3);
  ASSERT_TRUE(dispatcher.fail(due[0], 3));  // due 7
  dispatcher.defer(/*client=*/1, /*source=*/1, 0, 0, 10, 3);  // B, due 4
  dispatcher.defer(/*client=*/2, /*source=*/0, 1, 0, 10, 3);  // C, due 4
  due = dispatcher.take_due(4);
  ASSERT_EQ(clients_of(due), (std::vector<ClientId>{1, 2}));
  for (const auto& order : due) ASSERT_TRUE(dispatcher.fail(order, 4));

  // At 6 the re-parked B and C are due while the older A stays parked.
  due = dispatcher.take_due(6);
  EXPECT_EQ(clients_of(due), (std::vector<ClientId>{1, 2}));
  std::vector<PrefixDispatcher::Order> sorted = due;
  sort_by_source(sorted);
  EXPECT_EQ(clients_of(sorted), (std::vector<ClientId>{2, 1}));
  EXPECT_EQ(dispatcher.backlog_orders(), 1);
  for (const auto& order : due) ASSERT_TRUE(dispatcher.fail(order, 6));

  // When all three are due, A keeps its older FIFO position within source 0.
  due = dispatcher.take_due(10);
  EXPECT_EQ(clients_of(due), (std::vector<ClientId>{0, 1, 2}));
  sort_by_source(due);
  EXPECT_EQ(clients_of(due), (std::vector<ClientId>{0, 2, 1}));
}

TEST(MigrationDispatcherTest, PerSourceCapRefusesAsQueueFull) {
  std::vector<obs::JournalEvent> events;
  PrefixDispatcher dispatcher(
      {.max_attempts = 4}, 2, /*per_source_cap=*/2,
      [&events](const obs::JournalEvent& e) { events.push_back(e); });
  EXPECT_TRUE(dispatcher.defer(0, 0, 1, 3, 10, 0));
  EXPECT_TRUE(dispatcher.defer(1, 0, 1, 3, 20, 0));
  EXPECT_FALSE(dispatcher.defer(2, 0, 1, 3, 30, 0));
  EXPECT_TRUE(dispatcher.defer(3, 1, 0, 3, 40, 0));  // other source: room

  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[2].kind, Kind::kMigrationDropped);
  EXPECT_EQ(events[2].client, 2);
  EXPECT_EQ(events[2].bytes, 30);
  EXPECT_EQ(events[2].detail, 1);
  EXPECT_EQ(events[2].aux, obs::kDropQueueFull);
  EXPECT_EQ(dispatcher.tallies().deferred_orders, 3);
  EXPECT_EQ(dispatcher.tallies().deferred_bytes, 70);
  EXPECT_EQ(dispatcher.tallies().abandoned_orders, 1);
  EXPECT_EQ(dispatcher.tallies().abandoned_bytes, 30);
  EXPECT_EQ(dispatcher.backlog_bytes(), 70);

  // A failed retry re-enters the cap check: taking both source-0 orders out
  // frees their slots, so a fresh deferral fills one and the two retries
  // compete for the remaining one.
  auto due = dispatcher.take_due(1);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_TRUE(dispatcher.defer(4, 0, 1, 3, 50, 1));
  EXPECT_TRUE(dispatcher.fail(due[0], 1));
  EXPECT_FALSE(dispatcher.fail(due[1], 1));
  EXPECT_EQ(events.back().aux, obs::kDropQueueFull);
  EXPECT_EQ(events.back().detail, 2);
}

TEST(MigrationDispatcherTest, JournalsEachDecision) {
  std::vector<obs::JournalEvent> events;
  LayerDispatcher dispatcher(
      {.max_attempts = 2, .initial_backoff_intervals = 3,
       .max_backoff_intervals = 8},
      3, LayerDispatcher::kUnbounded,
      [&events](const obs::JournalEvent& e) { events.push_back(e); });
  dispatcher.defer(7, 1, 2, {4, 5}, 90, 10);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0],
            (obs::JournalEvent{.interval = 10,
                               .kind = Kind::kMigrationDeferred,
                               .client = 7,
                               .server = 1,
                               .peer = 2,
                               .bytes = 90,
                               .detail = 1,
                               .aux = 13}));

  // take_due() does not journal: the caller places each retried record.
  auto due = dispatcher.take_due(13);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(events.size(), 1u);
  dispatcher.journal_retry(due[0], 13);
  EXPECT_EQ(events.back().kind, Kind::kMigrationRetried);
  EXPECT_EQ(events.back().detail, 2);
  dispatcher.dissolve(due[0], 13);
  EXPECT_EQ(events.back().kind, Kind::kMigrationDropped);
  EXPECT_EQ(events.back().aux, obs::kDropDissolved);
  EXPECT_FALSE(dispatcher.fail(due[0], 13));
  EXPECT_EQ(events.back().kind, Kind::kMigrationDropped);
  EXPECT_EQ(events.back().aux, obs::kDropRetryBudget);
  EXPECT_EQ(events.size(), 4u);
}

TEST(MigrationDispatcherTest, SnapshotFlattenRestoreRoundTripsInOrder) {
  const MigrationRetryConfig config{.max_attempts = 6,
                                    .initial_backoff_intervals = 1,
                                    .max_backoff_intervals = 8};
  PrefixDispatcher original(config, 3, 4);
  original.defer(0, 2, 0, 5, 10, 0);
  original.defer(1, 0, 1, 6, 20, 0);
  original.defer(2, 1, 2, 7, 30, 1);
  original.defer(3, 0, 2, 8, 40, 1);
  auto due = original.take_due(1);
  for (const auto& order : due) original.fail(order, 1);
  original.defer(4, 2, 1, 9, 50, 2);

  // The sharded engine's encoding: the queue flattened by source.
  std::vector<PrefixDispatcher::Order> flat = original.state().queue;
  sort_by_source(flat);
  PrefixDispatcher restored(config, 3, 4);
  restored.restore({.queue = flat, .tallies = original.tallies()});
  EXPECT_EQ(restored.state().queue, flat);
  EXPECT_EQ(restored.backlog_bytes(), original.backlog_bytes());
  EXPECT_EQ(restored.backlog_orders(), original.backlog_orders());
  EXPECT_EQ(restored.tallies(), original.tallies());

  // Both hand out the same (source, FIFO) sequence from here on.
  for (int now = 2; now <= 12; ++now) {
    auto a = original.take_due(now);
    auto b = restored.take_due(now);
    sort_by_source(a);
    sort_by_source(b);
    ASSERT_EQ(a, b) << "interval " << now;
    for (const auto& order : a) original.fail(order, now);
    for (const auto& order : b) restored.fail(order, now);
  }
  EXPECT_EQ(restored.tallies(), original.tallies());

  // An order naming a source outside the world is rejected.
  PrefixDispatcher target(config, 3, 4);
  PrefixDispatcher::State bad;
  bad.queue.push_back({.client = 0, .source = 3});
  EXPECT_THROW(target.restore(bad), std::logic_error);
  bad.queue[0].source = -1;
  EXPECT_THROW(target.restore(bad), std::logic_error);
  EXPECT_EQ(target.backlog_orders(), 0);
}

}  // namespace
}  // namespace perdnn
