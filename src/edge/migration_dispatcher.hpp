// The one retry queue for proactive-migration pushes, shared by the
// trace-replay simulator and the sharded city-scale engine.
//
// A migration order that cannot be delivered — the backhaul to the target is
// out, or the target refused the transfer — is *deferred*, not lost: the
// dispatcher parks it with a retry deadline and re-offers it once the
// backoff elapses. Each failed attempt doubles the backoff (capped); after
// `max_attempts` total attempts the order is abandoned and its bytes move
// from the deferred backlog to the abandoned tally, so operators can tell
// "waiting for the link" apart from "gave up". A per-source cap bounds how
// many orders one server may have parked: a deferral past it is abandoned
// as kDropQueueFull. An order counts as deferred only once it is parked.
//
// The dispatcher is generic only in the payload naming what to send: the
// trace-replay engine parks an explicit layer list, the sharded engine the
// canonical prefix the target should reach. Parking, backoff, the attempt
// budget, the whole-run tallies and the kMigrationDeferred /
// kMigrationRetried / kMigrationDropped journal records all live here;
// callers attempt the delivery themselves and report failures via fail().
//
// Ordering: the parked orders form one global FIFO and take_due() hands due
// orders out FIFO-stable, so the same fault schedule replays to the same
// byte. The sharded engine's canonical order is (source server, FIFO
// position), which is exactly sort_by_source() applied to a FIFO sequence;
// it sorts both its due batches and its snapshot capture that way.
//
// Not thread-safe: migration dispatch is a serial control-plane activity in
// every current consumer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/types.hpp"
#include "obs/journal.hpp"

namespace perdnn {

struct MigrationRetryConfig {
  /// Total delivery attempts per order, the initial send included. 1 means
  /// "never retry"; must be >= 1.
  int max_attempts = 4;
  /// Backoff before the first retry, in intervals; doubles per failure.
  int initial_backoff_intervals = 1;
  /// Backoff ceiling, in intervals.
  int max_backoff_intervals = 16;
};

/// One parked migration order. `attempts` counts deliveries already tried.
template <typename Payload>
struct DeferredMigration {
  ClientId client = -1;
  ServerId source = kNoServer;
  ServerId target = kNoServer;
  Payload payload{};
  Bytes bytes = 0;  ///< bytes outstanding when parked
  int attempts = 1;
  int next_attempt_interval = 0;

  bool operator==(const DeferredMigration&) const = default;
};

/// Whole-run accounting of the retry queue.
struct RetryTallies {
  int deferred_orders = 0;   ///< orders parked at least once
  Bytes deferred_bytes = 0;  ///< bytes of those orders when first parked
  int retries = 0;           ///< delivery re-attempts handed out
  int abandoned_orders = 0;  ///< orders dropped (attempt budget, queue full)
  Bytes abandoned_bytes = 0;

  bool operator==(const RetryTallies&) const = default;
};

template <typename Payload>
class MigrationDispatcher {
 public:
  using Order = DeferredMigration<Payload>;
  using JournalSink = std::function<void(const obs::JournalEvent&)>;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  /// `num_servers` bounds the source ids; `per_source_cap` bounds the orders
  /// one source may have parked. `journal` receives the defer/retry/drop
  /// records; an empty sink disables recording.
  MigrationDispatcher(MigrationRetryConfig config, int num_servers,
                      int per_source_cap = kUnbounded,
                      JournalSink journal = {});

  /// Backoff before attempt (attempts + 1): the initial backoff doubled per
  /// prior failure, capped at max_backoff_intervals.
  int backoff_after(int attempts) const;

  /// Parks a freshly failed first attempt. Returns true if the order was
  /// parked (and counted as deferred); false if it was abandoned at once
  /// because its attempt budget is 1 or its source's queue is full.
  bool defer(ClientId client, ServerId source, ServerId target,
             Payload payload, Bytes bytes, int now_interval);

  /// Removes every order whose retry deadline has passed, FIFO-stable, with
  /// each order's attempt count already incremented for the retry being
  /// handed out. The caller journals each via journal_retry() and attempts
  /// it; an order not re-parked with fail() is settled.
  std::vector<Order> take_due(int now_interval);

  /// Records the kMigrationRetried event of an order from take_due().
  void journal_retry(const Order& order, int now_interval);

  /// Records that a due order dissolved: its layers reached the target by
  /// other means, so nothing is left to send.
  void dissolve(const Order& order, int now_interval);

  /// Delivery failed again: re-parks with doubled backoff, or abandons the
  /// order once its attempt budget is spent or its source's queue is full.
  /// Returns true if the order is still alive (parked).
  bool fail(Order order, int now_interval);

  /// Bytes currently parked awaiting retry.
  Bytes backlog_bytes() const { return backlog_bytes_; }
  int backlog_orders() const { return static_cast<int>(queue_.size()); }
  const RetryTallies& tallies() const { return tallies_; }

  /// Complete dispatcher state for checkpointing: the parked queue in FIFO
  /// order plus the whole-run tallies. `backlog_bytes` is Σ queue bytes;
  /// restore() recomputes it from the queue.
  struct State {
    std::vector<Order> queue;
    Bytes backlog_bytes = 0;
    RetryTallies tallies;
  };

  State state() const;
  /// Replaces the queue and tallies; throws if an order names a source
  /// outside [0, num_servers).
  void restore(const State& state);

 private:
  bool park_or_drop(Order order, int now_interval);
  void drop(const Order& order, int now_interval, std::int32_t reason);
  void journal(const Order& order, int now_interval,
               obs::JournalEventKind kind, std::int32_t aux);
  int& parked(ServerId source) {
    return parked_[static_cast<std::size_t>(source)];
  }

  MigrationRetryConfig config_;
  int per_source_cap_;
  JournalSink journal_;
  std::vector<Order> queue_;  // global FIFO
  std::vector<int> parked_;   // parked orders per source server
  Bytes backlog_bytes_ = 0;
  RetryTallies tallies_;
};

/// Stable sort by source server: turns a FIFO sequence into the sharded
/// engine's canonical (source server, FIFO position) order.
template <typename Payload>
void sort_by_source(std::vector<DeferredMigration<Payload>>& orders) {
  std::stable_sort(orders.begin(), orders.end(),
                   [](const DeferredMigration<Payload>& a,
                      const DeferredMigration<Payload>& b) {
                     return a.source < b.source;
                   });
}

/// Trace-replay engine: an order names the layers to push.
using LayerDispatcher = MigrationDispatcher<std::vector<LayerId>>;
/// Sharded engine: an order names the canonical prefix the target should
/// reach.
using PrefixDispatcher = MigrationDispatcher<std::uint16_t>;

extern template class MigrationDispatcher<std::vector<LayerId>>;
extern template class MigrationDispatcher<std::uint16_t>;

}  // namespace perdnn
