#include "faults/fault_timeline.hpp"

#include <algorithm>

namespace perdnn {

FaultTimeline::FaultTimeline(const FaultPlan& plan, int num_servers,
                             int num_clients) {
  plan.check_bounds(num_servers, num_clients);
  empty_ = plan.empty();
  if (empty_) return;
  down_.assign(static_cast<std::size_t>(num_servers), 0);
  telemetry_.assign(static_cast<std::size_t>(num_servers), 0);
  offline_.assign(static_cast<std::size_t>(num_clients), 0);
  links_.resize(static_cast<std::size_t>(num_servers));

  // The plan is time-sorted, so recording each event's applied record and
  // then its cleared record and stable-sorting by interval leaves every
  // interval's boundary records in plan order.
  for (const FaultEvent& e : plan.events()) {
    const int end = e.at_interval + e.duration_intervals;
    const auto code = static_cast<std::int32_t>(e.kind);
    records_.push_back({.interval = e.at_interval,
                        .kind = obs::JournalEventKind::kFaultApplied,
                        .client = e.client,
                        .server = e.server,
                        .peer = e.peer,
                        .detail = code,
                        .aux = e.duration_intervals,
                        .value = e.severity});
    records_.push_back({.interval = end,
                        .kind = obs::JournalEventKind::kFaultCleared,
                        .client = e.client,
                        .server = e.server,
                        .peer = e.peer,
                        .detail = code});

    Track track = Track::kDown;
    std::int32_t id = e.server;
    switch (e.kind) {
      case FaultKind::kServerCrash:
        break;
      case FaultKind::kTelemetryDropout:
        track = Track::kTelemetry;
        break;
      case FaultKind::kClientDisconnect:
        track = Track::kOffline;
        id = e.client;
        break;
      case FaultKind::kBackhaulDegrade: {
        track = Track::kBackhaul;
        id = 0;
        const LinkWindow link{e.at_interval, end, e.peer, 1.0 - e.severity};
        links_[static_cast<std::size_t>(e.server)].push_back(link);
        if (e.peer != kAllServers) {
          // Mirror onto the other endpoint so factor lookups only need to
          // scan one endpoint's windows.
          LinkWindow mirrored = link;
          mirrored.peer = e.server;
          links_[static_cast<std::size_t>(e.peer)].push_back(mirrored);
        }
        break;
      }
    }
    edges_.push_back({e.at_interval, track, id, true});
    edges_.push_back({end, track, id, false});
  }
  std::stable_sort(records_.begin(), records_.end(),
                   [](const obs::JournalEvent& a, const obs::JournalEvent& b) {
                     return a.interval < b.interval;
                   });
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    if (a.interval != b.interval) return a.interval < b.interval;
    if (a.track != b.track) return a.track < b.track;
    if (a.id != b.id) return a.id < b.id;
    return a.begins < b.begins;
  });
}

void FaultTimeline::apply(const Edge& edge) {
  const std::int32_t delta = edge.begins ? 1 : -1;
  const auto id = static_cast<std::size_t>(edge.id);
  switch (edge.track) {
    case Track::kDown:
      down_[id] += delta;
      break;
    case Track::kTelemetry:
      telemetry_[id] += delta;
      break;
    case Track::kOffline:
      offline_[id] += delta;
      break;
    case Track::kBackhaul:
      backhaul_ += delta;
      break;
  }
}

void FaultTimeline::enter(int interval) {
  if (empty_) return;
  if (interval != interval_ + 1) {
    // Cold entry: rebuild the counts from every edge before `interval`.
    std::fill(down_.begin(), down_.end(), 0);
    std::fill(telemetry_.begin(), telemetry_.end(), 0);
    std::fill(offline_.begin(), offline_.end(), 0);
    backhaul_ = 0;
    next_edge_ = 0;
    while (next_edge_ < edges_.size() &&
           edges_[next_edge_].interval < interval)
      apply(edges_[next_edge_++]);
  }
  interval_ = interval;

  // This interval's slice: apply it, collecting crash and disconnect starts
  // from its begin edges (already sorted by id within each track).
  crash_starts_.clear();
  disconnect_starts_.clear();
  for (; next_edge_ < edges_.size() && edges_[next_edge_].interval == interval;
       ++next_edge_) {
    const Edge& edge = edges_[next_edge_];
    apply(edge);
    if (!edge.begins) continue;
    if (edge.track == Track::kDown &&
        (crash_starts_.empty() || crash_starts_.back() != edge.id))
      crash_starts_.push_back(edge.id);
    if (edge.track == Track::kOffline &&
        (disconnect_starts_.empty() || disconnect_starts_.back() != edge.id))
      disconnect_starts_.push_back(edge.id);
  }

  const auto [first, last] = std::equal_range(
      records_.begin(), records_.end(), obs::JournalEvent{.interval = interval},
      [](const obs::JournalEvent& a, const obs::JournalEvent& b) {
        return a.interval < b.interval;
      });
  records_first_ = static_cast<std::size_t>(first - records_.begin());
  records_last_ = static_cast<std::size_t>(last - records_.begin());
}

double FaultTimeline::backhaul_factor(ServerId a, ServerId b) const {
  if (backhaul_ == 0) return 1.0;
  double factor = 1.0;
  for (const LinkWindow& w : links_[static_cast<std::size_t>(a)]) {
    if (w.start > interval_ || interval_ >= w.end) continue;
    if (w.peer != kAllServers && w.peer != b) continue;
    factor = std::min(factor, w.factor);
  }
  return factor;
}

}  // namespace perdnn
