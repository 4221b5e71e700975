// The fault clock: the one stateful runtime view of a FaultPlan that both
// simulation engines advance once per interval. Every window is compiled at
// construction into a begin edge at its first interval and an end edge at
// its exclusive end, sorted by interval. enter(t) applies interval t's edge
// slice to per-entity active counts (an entity is faulted while its count is
// positive, which reproduces the union of overlapping windows exactly), so
// the per-entity queries below are O(1) reads of the current interval's
// state.
//
// The clock answers purely from the plan; consumers own any *state*
// consequences (wiping a crashed server's cache, detaching its clients) by
// iterating crash_starts() / disconnect_starts() after each enter().
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "faults/fault_plan.hpp"
#include "obs/journal.hpp"

namespace perdnn {

/// Unordered link id: a degraded backhaul link's capacity is shared by both
/// directions, so per-interval link usage is keyed by the unordered pair.
inline std::uint64_t link_key(ServerId a, ServerId b) {
  const auto lo =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(std::min(a, b)));
  const auto hi =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(std::max(a, b)));
  return (hi << 32) | lo;
}

class FaultTimeline {
 public:
  /// Compiles `plan` for a world of the given size; bounds-checks every
  /// event id (throws std::logic_error on an out-of-range entity). An empty
  /// plan allocates no per-entity state.
  FaultTimeline(const FaultPlan& plan, int num_servers, int num_clients);
  /// Empty timeline: every query reports "healthy".
  FaultTimeline() = default;

  bool empty() const { return empty_; }

  /// Advances the clock to `interval`. When it directly follows the last
  /// interval entered only that interval's edges apply; otherwise (a resume,
  /// or any jump) the counts are rebuilt from every edge up to `interval`,
  /// so a fresh run and a resumed one reach identical state.
  void enter(int interval);

  // Queries about the interval last entered.
  bool server_down(ServerId server) const {
    return !empty_ && down_[static_cast<std::size_t>(server)] > 0;
  }
  bool telemetry_down(ServerId server) const {
    return !empty_ && telemetry_[static_cast<std::size_t>(server)] > 0;
  }
  bool client_offline(ClientId client) const {
    return !empty_ && offline_[static_cast<std::size_t>(client)] > 0;
  }
  /// True if any backhaul event at all is active — lets consumers skip
  /// per-link accounting entirely on healthy intervals.
  bool backhaul_active() const { return backhaul_ > 0; }
  /// Remaining backhaul capacity fraction on the link from `a` to `b`:
  /// 1.0 = healthy, 0.0 = outage. When several events overlap the link, the
  /// worst (minimum) factor applies.
  double backhaul_factor(ServerId a, ServerId b) const;

  /// Servers whose crash window opens this interval (deduplicated, sorted
  /// by id) — the moment the cache is lost and clients drop.
  const std::vector<ServerId>& crash_starts() const { return crash_starts_; }
  /// Clients whose disconnect window opens this interval (same order).
  const std::vector<ClientId>& disconnect_starts() const {
    return disconnect_starts_;
  }
  /// This interval's kFaultApplied / kFaultCleared journal records, in plan
  /// order: one applied record at a window's first interval, one cleared
  /// record at its exclusive end.
  std::span<const obs::JournalEvent> boundary_records() const {
    return {records_.data() + records_first_, records_.data() + records_last_};
  }

 private:
  enum class Track : std::uint8_t { kDown, kTelemetry, kOffline, kBackhaul };
  /// One state change: `begins` at a window's first interval, !begins at
  /// its exclusive end. Sorted by (interval, track, id, begins).
  struct Edge {
    int interval = 0;
    Track track = Track::kDown;
    std::int32_t id = 0;  // server or client id; 0 on the backhaul track
    bool begins = false;
  };
  struct LinkWindow {
    int start = 0;
    int end = 0;                  // exclusive
    ServerId peer = kAllServers;  // kAllServers = wildcard
    double factor = 0.0;          // remaining capacity = 1 - severity
  };

  void apply(const Edge& edge);

  bool empty_ = true;
  std::vector<Edge> edges_;
  std::vector<obs::JournalEvent> records_;     // sorted by interval
  std::vector<std::vector<LinkWindow>> links_;  // per server endpoint

  // Clock state: the interval last entered and the active counts there.
  int interval_ = -1;
  std::size_t next_edge_ = 0;  // first edge after interval_
  std::vector<std::int32_t> down_, telemetry_, offline_;
  int backhaul_ = 0;
  std::vector<ServerId> crash_starts_;
  std::vector<ClientId> disconnect_starts_;
  std::size_t records_first_ = 0, records_last_ = 0;
};

}  // namespace perdnn
