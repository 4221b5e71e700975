// Compiled runtime view of a FaultPlan: the per-interval queries the
// simulator (and any other consumer driving a fleet through time) asks while
// the clock advances. Events are bucketed per entity into sorted windows at
// construction, so every query is a binary search over that entity's own
// windows — O(log k) with k the number of faults scripted for it.
//
// The timeline is immutable and answers purely from the plan; consumers own
// any *state* consequences (wiping a crashed server's cache, detaching its
// clients) by iterating crashes_starting_at / disconnects_starting_at once
// per interval.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "faults/fault_plan.hpp"

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

/// One state-change edge in the interval-indexed view of a fault class:
/// `begins` is true at a window's first interval and false at its exclusive
/// end. Consumers keep a per-entity active *count* (an entity is faulted
/// while its count is positive), which reproduces the union semantics of
/// overlapping windows exactly. Edge lists are sorted by (interval, id), so
/// walking the clock forward applies each interval's edges as one contiguous
/// slice — no per-entity rescans of the plan.
struct FaultEdge {
  int interval = 0;
  std::int32_t id = 0;  // server or client id; 0 for the global backhaul list
  bool begins = false;
};

class FaultTimeline {
 public:
  /// Compiles `plan` for a world of the given size; bounds-checks every
  /// event id (throws std::logic_error on an out-of-range entity).
  FaultTimeline(const FaultPlan& plan, int num_servers, int num_clients);
  /// Empty timeline: every query reports "healthy".
  FaultTimeline() = default;

  bool empty() const { return empty_; }

  /// Crash events whose window opens exactly at `interval` (deduplicated,
  /// sorted by server id) — the moment the cache is lost and clients drop.
  std::vector<ServerId> crashes_starting_at(int interval) const;
  /// Clients whose disconnect window opens exactly at `interval`.
  std::vector<ClientId> disconnects_starting_at(int interval) const;

  bool server_down(ServerId server, int interval) const;
  bool telemetry_down(ServerId server, int interval) const;
  bool client_offline(ClientId client, int interval) const;

  /// Remaining backhaul capacity fraction on the (unordered) link between
  /// `a` and `b` during `interval`: 1.0 = healthy, 0.0 = outage. When
  /// several events overlap the link, the worst (minimum) factor applies.
  double backhaul_factor(ServerId a, ServerId b, int interval) const;

  /// True if any backhaul event at all is active during `interval` — lets
  /// consumers skip per-link accounting entirely on healthy intervals.
  bool any_backhaul_fault(int interval) const;

  // Interval-indexed edge lists, precompiled at construction for consumers
  // that advance the clock one interval at a time (the sharded engine).
  // Counting begins/ends per entity is equivalent to the per-entity window
  // queries above — tests/faults/fault_timeline_index_test.cpp proves it.
  const std::vector<FaultEdge>& server_down_edges() const {
    return server_down_edges_;
  }
  const std::vector<FaultEdge>& telemetry_edges() const {
    return telemetry_edges_;
  }
  const std::vector<FaultEdge>& client_offline_edges() const {
    return client_offline_edges_;
  }
  /// Backhaul window activity edges (id unused): a positive count means
  /// any_backhaul_fault() is true for the interval.
  const std::vector<FaultEdge>& backhaul_edges() const {
    return backhaul_edges_;
  }

  /// The contiguous [first, last) slice of `edges` at exactly `interval`
  /// (binary search; edges are sorted by interval).
  static std::pair<const FaultEdge*, const FaultEdge*> edges_at(
      const std::vector<FaultEdge>& edges, int interval);

 private:
  struct Window {
    int start = 0;
    int end = 0;  // exclusive
  };
  struct LinkWindow {
    int start = 0;
    int end = 0;
    ServerId peer = kAllServers;  // kAllServers = wildcard
    double factor = 0.0;          // remaining capacity = 1 - severity
  };

  static bool in_any(const std::vector<Window>& windows, int interval);

  bool empty_ = true;
  std::vector<std::vector<Window>> server_down_;      // per server
  std::vector<std::vector<Window>> telemetry_down_;   // per server
  std::vector<std::vector<Window>> client_offline_;   // per client
  std::vector<std::vector<LinkWindow>> backhaul_;     // per server endpoint
  std::vector<std::pair<int, ServerId>> crash_starts_;       // sorted
  std::vector<std::pair<int, ClientId>> disconnect_starts_;  // sorted
  std::vector<Window> backhaul_active_;  // union-ish: any event window
  // Interval-indexed views, each sorted by (interval, id, begins).
  std::vector<FaultEdge> server_down_edges_;
  std::vector<FaultEdge> telemetry_edges_;
  std::vector<FaultEdge> client_offline_edges_;
  std::vector<FaultEdge> backhaul_edges_;
};

}  // namespace perdnn
