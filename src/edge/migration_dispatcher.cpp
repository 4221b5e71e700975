#include "edge/migration_dispatcher.hpp"

#include <climits>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace perdnn {

template <typename Payload>
MigrationDispatcher<Payload>::MigrationDispatcher(MigrationRetryConfig config,
                                                  int num_servers,
                                                  int per_source_cap,
                                                  JournalSink journal)
    : config_(config),
      per_source_cap_(per_source_cap),
      journal_(std::move(journal)) {
  PERDNN_CHECK_MSG(config_.max_attempts >= 1,
                   "migration max_attempts must be >= 1 (got "
                       << config_.max_attempts << ")");
  PERDNN_CHECK_MSG(config_.initial_backoff_intervals >= 1,
                   "migration initial_backoff_intervals must be >= 1 (got "
                       << config_.initial_backoff_intervals << ")");
  PERDNN_CHECK_MSG(
      config_.max_backoff_intervals >= config_.initial_backoff_intervals,
      "migration max_backoff_intervals must be >= the initial backoff");
  PERDNN_CHECK_MSG(per_source_cap >= 1, "per_source_cap must be >= 1");
  PERDNN_CHECK(num_servers >= 0);
  parked_.assign(static_cast<std::size_t>(num_servers), 0);
}

template <typename Payload>
int MigrationDispatcher<Payload>::backoff_after(int attempts) const {
  // attempts = deliveries already tried; first retry (attempts == 1) waits
  // the initial backoff, each further failure doubles it up to the cap.
  // 64-bit so doubling a cap near INT_MAX cannot overflow.
  std::int64_t backoff = config_.initial_backoff_intervals;
  for (int i = 1; i < attempts && backoff < config_.max_backoff_intervals;
       ++i)
    backoff *= 2;
  return static_cast<int>(
      std::min<std::int64_t>(backoff, config_.max_backoff_intervals));
}

template <typename Payload>
void MigrationDispatcher<Payload>::journal(const Order& order,
                                           int now_interval,
                                           obs::JournalEventKind kind,
                                           std::int32_t aux) {
  if (!journal_) return;
  journal_({.interval = now_interval,
            .kind = kind,
            .client = order.client,
            .server = order.source,
            .peer = order.target,
            .bytes = order.bytes,
            .detail = order.attempts,
            .aux = aux});
}

template <typename Payload>
bool MigrationDispatcher<Payload>::defer(ClientId client, ServerId source,
                                         ServerId target, Payload payload,
                                         Bytes bytes, int now_interval) {
  PERDNN_CHECK(bytes >= 0);
  if (!park_or_drop({.client = client,
                     .source = source,
                     .target = target,
                     .payload = std::move(payload),
                     .bytes = bytes,
                     .attempts = 1},
                    now_interval))
    return false;
  ++tallies_.deferred_orders;
  tallies_.deferred_bytes += bytes;
  obs::count("migration.deferred_orders");
  obs::count("migration.deferred_bytes", static_cast<double>(bytes));
  return true;
}

template <typename Payload>
bool MigrationDispatcher<Payload>::fail(Order order, int now_interval) {
  return park_or_drop(std::move(order), now_interval);
}

template <typename Payload>
bool MigrationDispatcher<Payload>::park_or_drop(Order order,
                                                int now_interval) {
  if (order.attempts >= config_.max_attempts) {
    drop(order, now_interval, obs::kDropRetryBudget);
    return false;
  }
  if (parked(order.source) >= per_source_cap_) {
    drop(order, now_interval, obs::kDropQueueFull);
    return false;
  }
  order.next_attempt_interval = static_cast<int>(std::min<std::int64_t>(
      static_cast<std::int64_t>(now_interval) + backoff_after(order.attempts),
      INT_MAX));
  journal(order, now_interval, obs::JournalEventKind::kMigrationDeferred,
          order.next_attempt_interval);
  ++parked(order.source);
  backlog_bytes_ += order.bytes;
  queue_.push_back(std::move(order));
  return true;
}

template <typename Payload>
void MigrationDispatcher<Payload>::drop(const Order& order, int now_interval,
                                        std::int32_t reason) {
  ++tallies_.abandoned_orders;
  tallies_.abandoned_bytes += order.bytes;
  obs::count("migration.abandoned_orders");
  obs::count("migration.abandoned_bytes", static_cast<double>(order.bytes));
  journal(order, now_interval, obs::JournalEventKind::kMigrationDropped,
          reason);
}

template <typename Payload>
std::vector<typename MigrationDispatcher<Payload>::Order>
MigrationDispatcher<Payload>::take_due(int now_interval) {
  // Stable extraction: deadlines are not monotonic in FIFO order (a
  // re-parked order can come due before an older long-backoff one), so
  // scan the whole queue, keeping the relative order of what stays.
  std::vector<Order> due;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    Order& order = queue_[i];
    if (order.next_attempt_interval <= now_interval) {
      backlog_bytes_ -= order.bytes;
      --parked(order.source);
      ++order.attempts;
      due.push_back(std::move(order));
    } else {
      if (kept != i) queue_[kept] = std::move(order);
      ++kept;
    }
  }
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(kept),
               queue_.end());
  tallies_.retries += static_cast<int>(due.size());
  if (!due.empty())
    obs::count("migration.retries", static_cast<double>(due.size()));
  return due;
}

template <typename Payload>
void MigrationDispatcher<Payload>::journal_retry(const Order& order,
                                                 int now_interval) {
  journal(order, now_interval, obs::JournalEventKind::kMigrationRetried, 0);
}

template <typename Payload>
void MigrationDispatcher<Payload>::dissolve(const Order& order,
                                            int now_interval) {
  journal(order, now_interval, obs::JournalEventKind::kMigrationDropped,
          obs::kDropDissolved);
}

template <typename Payload>
typename MigrationDispatcher<Payload>::State
MigrationDispatcher<Payload>::state() const {
  return {.queue = queue_, .backlog_bytes = backlog_bytes_,
          .tallies = tallies_};
}

template <typename Payload>
void MigrationDispatcher<Payload>::restore(const State& state) {
  std::vector<int> parked(parked_.size(), 0);
  Bytes backlog = 0;
  for (const Order& order : state.queue) {
    PERDNN_CHECK_MSG(order.source >= 0 &&
                         static_cast<std::size_t>(order.source) <
                             parked.size(),
                     "restored retry order names an unknown source server");
    ++parked[static_cast<std::size_t>(order.source)];
    backlog += order.bytes;
  }
  queue_ = state.queue;
  parked_ = std::move(parked);
  backlog_bytes_ = backlog;
  tallies_ = state.tallies;
}

template class MigrationDispatcher<std::vector<LayerId>>;
template class MigrationDispatcher<std::uint16_t>;

}  // namespace perdnn
