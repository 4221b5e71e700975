// Benchmark binary: runs one workload of the perdnn benchmark and prints raw
// measurements as JSON lines on stdout. perfbench/run.py builds this binary,
// aggregates the lines into end-to-end or per-layer metrics and checks the
// simulated outputs; see perfbench/README.md for the workloads.
//
//   perfbench --workload city|cache_pressure|chaos|replay --seed N
//             --seconds S --trace 0|1 --out DIR
//
// Records, one JSON object per line, each tagged by "record":
//   fingerprint  machine and build identity of the numbers that follow
//   setup        one input generation + world build, host seconds
//   rep          one full simulation of the workload: host seconds,
//                client-intervals simulated, per-interval host seconds and
//                the modelled statistics (exact for a given seed)
//   trace        (--trace 1 only) per-layer numbers of one traced run
//   end          peak resident set size of the process
//
// Only public entry points are called: build_world / run_simulation for the
// classic engine, build_shard_world / run_sharded_simulation for the sharded
// one. Per-layer numbers come from spans this file opens around those calls
// plus the spans, counters and histograms the library already records into
// the obs registry and Tracer; nothing under src/ is instrumented for it.
//
// The modelled statistics come from a simulation model of edge servers,
// wireless links and DNN execution that has not been validated against
// real hardware.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fastpath.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "faults/fault_plan.hpp"
#include "mobility/trace_gen.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/shard_sim.hpp"
#include "sim/shard_world.hpp"
#include "sim/simulator.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perdnn;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// JSON line writer.

class JsonLine {
 public:
  explicit JsonLine(const char* record) { str("record", record); }
  JsonLine& num(const char* key, double v) {
    key_(key);
    out_ += obs::json_number(v);
    return *this;
  }
  JsonLine& str(const char* key, const std::string& v) {
    key_(key);
    obs::json_escape(out_, v);
    return *this;
  }
  JsonLine& nums(const char* key, const std::vector<double>& vs) {
    key_(key);
    out_ += '[';
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) out_ += ',';
      out_ += obs::json_number(vs[i]);
    }
    out_ += ']';
    return *this;
  }
  JsonLine& object(const char* key, const std::map<std::string, double>& m) {
    key_(key);
    out_ += '{';
    bool first = true;
    for (const auto& [k, v] : m) {
      if (!first) out_ += ',';
      first = false;
      obs::json_escape(out_, k);
      out_ += ':';
      out_ += obs::json_number(v);
    }
    out_ += '}';
    return *this;
  }
  void print() {
    std::printf("%s}\n", out_.c_str());
    std::fflush(stdout);
  }

 private:
  void key_(const char* key) {
    out_ += out_.empty() ? '{' : ',';
    obs::json_escape(out_, key);
    out_ += ':';
  }
  std::string out_;
};

// ---------------------------------------------------------------------------
// Workloads.

/// Worker threads of every workload. With one thread the classic engine's
/// run-to-run spread on a shared 4-core host was more than twice that with
/// two.
constexpr int kThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// One simulation's outcome: modelled statistics plus host timing.
struct RepResult {
  std::map<std::string, double> stats;
  double wall_s = 0.0;
  double client_intervals = 0.0;
  std::vector<double> interval_wall_s;
};

/// A workload builds its inputs once per setup() and then simulates them
/// any number of times through run().
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generates inputs from the seed and builds the world, replacing any
  /// previous one.
  virtual void setup(std::uint64_t seed) = 0;
  /// Simulates the built world once.
  virtual RepResult run() = 0;
};

void put_common_stats(const SimulationMetrics& m,
                      std::map<std::string, double>& s) {
  const auto d = [](auto v) { return static_cast<double>(v); };
  s["cold_window_queries"] = d(m.cold_window_queries);
  s["server_changes"] = d(m.server_changes);
  s["hits"] = d(m.hits);
  s["partials"] = d(m.partials);
  s["misses"] = d(m.misses);
  s["server_failures"] = d(m.server_failures);
  s["failure_evictions"] = d(m.failure_evictions);
  s["client_disconnect_events"] = d(m.client_disconnect_events);
  s["local_fallback_queries"] = d(m.local_fallback_queries);
  s["attached_client_intervals"] = d(m.attached_client_intervals);
  s["unreachable_client_intervals"] = d(m.unreachable_client_intervals);
  s["offline_client_intervals"] = d(m.offline_client_intervals);
  s["degraded_attaches"] = d(m.degraded_attaches);
  s["attaches_shed"] = d(m.attaches_shed);
  s["migrations_deferred"] = d(m.migrations_deferred);
  s["migration_retries"] = d(m.migration_retries);
  s["migrations_abandoned"] = d(m.migrations_abandoned);
  s["deferred_migration_bytes"] = d(m.deferred_migration_bytes);
  s["abandoned_migration_bytes"] = d(m.abandoned_migration_bytes);
  s["peak_deferred_backlog_bytes"] = d(m.peak_deferred_backlog_bytes);
  s["cache_evictions"] = d(m.cache_evictions);
  s["cache_partial_stores"] = d(m.cache_partial_stores);
  s["peak_cache_bytes"] = d(m.peak_cache_bytes);
  s["total_migrated_bytes"] = d(m.total_migrated_bytes);
  s["peak_uplink_mbps"] = m.peak_uplink_mbps;
  s["peak_downlink_mbps"] = m.peak_downlink_mbps;
  s["availability"] = m.availability();
  s["hit_ratio"] = m.hit_ratio();
  s["num_servers"] = d(m.num_servers);
  s["num_clients"] = d(m.num_clients);
  s["num_intervals"] = d(m.num_intervals);
}

/// Whole-run sums over timeseries rows, which the checks reconcile with
/// SimulationMetrics, plus the cold-window latency sum the metrics lack.
class TimeseriesSums {
 public:
  void add(const obs::TimeseriesRow& row) {
    rows_ += 1;
    hits_ += row.hits;
    partials_ += row.partials;
    misses_ += row.misses;
    queries_ += static_cast<double>(row.cold_window_queries);
    latency_ += row.cold_latency_sum_s;
    uplink_ += static_cast<double>(row.uplink_bytes);
    downlink_ += static_cast<double>(row.downlink_bytes);
    orders_ += row.migration_orders;
  }

  void put(std::map<std::string, double>& s) const {
    s["ts.rows"] = rows_;
    s["ts.hits"] = hits_;
    s["ts.partials"] = partials_;
    s["ts.misses"] = misses_;
    s["ts.cold_window_queries"] = queries_;
    s["ts.uplink_bytes"] = uplink_;
    s["ts.downlink_bytes"] = downlink_;
    s["ts.migration_orders"] = orders_;
    s["cold_latency_sum_s"] = latency_;
  }

 private:
  double rows_ = 0, hits_ = 0, partials_ = 0, misses_ = 0, queries_ = 0,
         latency_ = 0, uplink_ = 0, downlink_ = 0, orders_ = 0;
};

/// Reads back the columns TimeseriesSums needs from a streamed CSV.
TimeseriesSums read_timeseries_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read timeseries " + path);
  const char* const kColumns[] = {"hits",
                                  "partials",
                                  "misses",
                                  "cold_window_queries",
                                  "cold_latency_sum_s",
                                  "uplink_bytes",
                                  "downlink_bytes",
                                  "migration_orders"};
  std::vector<std::size_t> col;
  std::size_t width = 0;
  TimeseriesSums sums;
  std::string line;
  std::vector<std::string> cells;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    cells.clear();
    for (std::size_t start = 0;;) {
      const std::size_t comma = line.find(',', start);
      cells.push_back(line.substr(start, comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (col.empty()) {
      width = cells.size();
      for (const char* name : kColumns) {
        const auto it = std::find(cells.begin(), cells.end(), name);
        if (it == cells.end())
          throw std::runtime_error(std::string("timeseries lacks column ") +
                                   name);
        col.push_back(static_cast<std::size_t>(it - cells.begin()));
      }
      continue;
    }
    if (cells.size() != width)
      throw std::runtime_error("ragged timeseries row in " + path);
    const auto cell = [&](std::size_t i) { return std::stod(cells[col[i]]); };
    obs::TimeseriesRow row;
    row.hits = static_cast<int>(cell(0));
    row.partials = static_cast<int>(cell(1));
    row.misses = static_cast<int>(cell(2));
    row.cold_window_queries = static_cast<long long>(cell(3));
    row.cold_latency_sum_s = cell(4);
    row.uplink_bytes = static_cast<std::int64_t>(cell(5));
    row.downlink_bytes = static_cast<std::int64_t>(cell(6));
    row.migration_orders = static_cast<int>(cell(7));
    sums.add(row);
  }
  return sums;
}

/// The sharded city engine over a synthetic hex-tiled city.
class ShardWorkload : public Workload {
 public:
  using Configure = std::function<void(ShardWorldConfig&, std::uint64_t)>;
  ShardWorkload(Configure configure, std::string timeseries_path,
                double budget_prefixes)
      : configure_(std::move(configure)),
        timeseries_path_(std::move(timeseries_path)),
        budget_prefixes_(budget_prefixes) {}

  void setup(std::uint64_t seed) override {
    world_.reset();
    ShardWorldConfig config;
    config.offline_probability = 0.02;
    config.seed = seed;
    configure_(config, seed);
    PERDNN_SPAN("bench.shard_world.build");
    world_ = std::make_unique<ShardWorld>(build_shard_world(config));
    // The planning tables do not depend on the budget, so it is set on the
    // built world in units of the canonical prefix it just computed.
    if (budget_prefixes_ > 0)
      world_->config.cache_budget_bytes = static_cast<Bytes>(
          budget_prefixes_ * static_cast<double>(world_->prefix_bytes.back()));
  }

  RepResult run() override {
    RepResult r;
    ShardRunOptions options;
    options.num_shards = 16;
    options.timeseries_path = timeseries_path_;
    options.interval_wall_s = &r.interval_wall_s;
    SimulationMetrics m;
    const auto start = Clock::now();
    {
      PERDNN_SPAN("bench.shard_sim.run");
      m = run_sharded_simulation(*world_, options);
    }
    r.wall_s = since(start);
    const ShardWorldConfig& c = world_->config;
    r.client_intervals =
        static_cast<double>(c.num_clients) * static_cast<double>(c.num_intervals);
    put_common_stats(m, r.stats);
    read_timeseries_csv(timeseries_path_).put(r.stats);
    r.stats["ts.bytes"] =
        static_cast<double>(std::filesystem::file_size(timeseries_path_));
    r.stats["active_client_intervals"] = r.client_intervals;
    r.stats["cache_budget_bytes"] = static_cast<double>(c.cache_budget_bytes);
    return r;
  }

 private:
  Configure configure_;
  std::string timeseries_path_;
  double budget_prefixes_ = 0.0;
  std::unique_ptr<ShardWorld> world_;
};

/// The paper-faithful trace-replay engine over Geolife-like urban traces.
class ReplayWorkload : public Workload {
 public:
  static constexpr Seconds kInterval = 20.0;
  static constexpr Seconds kDuration = 30.0 * 60.0;
  static constexpr int kUsers = 138;
  static constexpr int kPool = 10;

  /// A Geolife-like cohort: kUsers urban users sampled every 5 s and
  /// resampled to the 20 s simulation interval. The users are drawn one per
  /// mean-speed stratum from a pool of kPool x kUsers generated from the
  /// seed, so the walk/bike/vehicle mix, which sets the cost of a
  /// client-interval, varies little from seed to seed.
  static std::vector<Trajectory> cohort(std::uint64_t seed) {
    UrbanTraceConfig config;
    config.num_users = kUsers * kPool;
    config.duration = kDuration;
    config.seed = seed;
    const std::vector<Trajectory> pool = generate_urban_traces(config);
    std::vector<std::pair<double, std::size_t>> by_speed;
    for (std::size_t i = 0; i < pool.size(); ++i)
      by_speed.emplace_back(pool[i].mean_speed(), i);
    std::sort(by_speed.begin(), by_speed.end());
    std::vector<Trajectory> out;
    for (int i = 0; i < kUsers; ++i)
      out.push_back(
          pool[by_speed[static_cast<std::size_t>(i * kPool + kPool / 2)].second]
              .resampled(static_cast<int>(kInterval / 5.0)));
    return out;
  }

  void setup(std::uint64_t seed) override {
    world_.reset();
    config_ = SimulationConfig{};
    config_.model = ModelName::kInception;
    config_.policy = MigrationPolicy::kProactive;
    config_.migration_radius_m = 100.0;
    config_.seed = seed;
    PERDNN_SPAN("bench.replay.setup");
    const std::vector<Trajectory> train = cohort(mix_seed(seed, 1));
    test_ = cohort(mix_seed(seed, 2));
    world_ = std::make_unique<SimulationWorld>(
        build_world(config_, train, test_));
  }

  RepResult run() override {
    RepResult r;
    obs::SimTimeseries timeseries;
    SimulationMetrics m;
    // This engine has no per-interval timing hook, so the host time of each
    // interval is read from its existing "sim.interval" span. With the
    // metric registry off, the Tracer alone records a few hundred events
    // per run (sim.interval, sim.migrate and the partitioner's spans).
    obs::Tracer& tracer = obs::Tracer::global();
    const bool own_tracer = !tracer.active();
    if (own_tracer) tracer.start();
    const std::size_t first_event = tracer.num_events();
    const auto start = Clock::now();
    {
      PERDNN_SPAN("bench.sim.run");
      m = run_simulation(config_, *world_, &timeseries);
    }
    r.wall_s = since(start);
    const std::vector<obs::TraceEvent> events = tracer.events();
    if (own_tracer) tracer.stop();
    for (std::size_t i = first_event; i < events.size(); ++i)
      if (events[i].name == "sim.interval")
        r.interval_wall_s.push_back(events[i].dur_us / 1e6);
    double active = 0.0;
    for (const Trajectory& t : test_) active += static_cast<double>(t.size());
    r.client_intervals = active;
    put_common_stats(m, r.stats);
    r.stats["active_client_intervals"] = active;
    TimeseriesSums sums;
    for (const obs::TimeseriesRow& row : timeseries.rows()) sums.add(row);
    sums.put(r.stats);
    return r;
  }

 private:
  SimulationConfig config_;
  std::vector<Trajectory> test_;
  std::unique_ptr<SimulationWorld> world_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& out_dir) {
  const std::string ts = out_dir + "/" + name + ".timeseries.csv";
  if (name == "city") {
    return std::make_unique<ShardWorkload>(
        [](ShardWorldConfig& c, std::uint64_t) {
          c.model = ModelName::kInception;
          c.tiles_x = 50;
          c.tiles_y = 50;
          c.num_clients = 250'000;
          c.num_intervals = 12;
        },
        ts, 0.0);
  }
  if (name == "cache_pressure") {
    return std::make_unique<ShardWorkload>(
        [](ShardWorldConfig& c, std::uint64_t) {
          c.model = ModelName::kMobileNet;
          c.tiles_x = 20;
          c.tiles_y = 20;
          c.num_clients = 60'000;
          c.num_intervals = 8;
        },
        ts, 2.0);
  }
  if (name == "chaos") {
    return std::make_unique<ShardWorkload>(
        [](ShardWorldConfig& c, std::uint64_t seed) {
          c.model = ModelName::kInception;
          c.tiles_x = 32;
          c.tiles_y = 32;
          c.num_clients = 100'000;
          c.num_intervals = 12;
          c.migration_retry = {.max_attempts = 6,
                               .initial_backoff_intervals = 1,
                               .max_backoff_intervals = 8};
          // The bench_chaos --sharded mid-fault schedule (1% rates) ...
          RandomFaultConfig faults;
          faults.seed = mix_seed(seed, 3);
          faults.num_servers = c.num_servers();
          faults.num_clients = c.num_clients;
          faults.num_intervals = c.num_intervals;
          faults.crash_downtime_intervals = 4;
          faults.backhaul_outage_intervals = 3;
          faults.server_crash_rate = 0.01;
          faults.backhaul_degrade_rate = 0.01;
          faults.telemetry_dropout_rate = 0.01;
          faults.client_disconnect_rate = 0.01 / 5.0;
          c.fault_plan = FaultPlan::random_schedule(faults);
          // ... plus its flash crowd (1% hot tiles x 25) under an admission
          // cap of twice the mean clients per server.
          c.flash_crowd_tiles = std::max(1, c.num_servers() / 100);
          c.flash_crowd_multiplier = 25.0;
          c.admission_max_attached =
              std::max(8, 2 * c.num_clients / c.num_servers());
        },
        ts, 0.0);
  }
  if (name == "replay") return std::make_unique<ReplayWorkload>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Per-layer numbers of a traced run.

double counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

obs::Histogram& histogram(const std::string& name) {
  return obs::Registry::global().histogram(name);
}

double span_sum_s(const char* name) {
  return histogram(std::string("span.") + name).sum();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Self time of every span named `name`: its duration minus the part its
/// direct children (one level deeper, same thread, inside it) cover.
double self_time_s(const std::vector<obs::TraceEvent>& events,
                   const std::string& name) {
  double self_us = 0.0;
  for (const obs::TraceEvent& parent : events) {
    if (parent.name != name) continue;
    double child_us = 0.0;
    const double end = parent.ts_us + parent.dur_us;
    for (const obs::TraceEvent& e : events)
      if (e.tid == parent.tid && e.depth == parent.depth + 1 &&
          e.ts_us >= parent.ts_us && e.ts_us + e.dur_us <= end)
        child_us += e.dur_us;
    self_us += parent.dur_us - child_us;
  }
  return self_us / 1e6;
}

std::map<std::string, double> layer_metrics(const RepResult& traced) {
  const std::map<std::string, double>& s = traced.stats;
  const auto stat = [&](const char* key) {
    const auto it = s.find(key);
    return it == s.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> l;
  // sim.shard_world / estimation / ml
  l["shard_world.build_s"] = span_sum_s("bench.shard_world.build");
  l["estimator.train_s"] = span_sum_s("estimator.train");
  l["estimator.estimates"] = counter("estimator.estimates");
  const double ec_hits = counter("estimate_cache.hits");
  l["estimate_cache.hit_ratio"] =
      ratio(ec_hits, ec_hits + counter("estimate_cache.misses"));
  // sim.shard_sim (the phase split is parsed from PERDNN_PHASE_TIMING by
  // run.py; only the wrapping span is measured here)
  l["shard_sim.run_s"] = span_sum_s("bench.shard_sim.run");
  // common/parallel
  obs::Histogram& task = histogram("par.task_latency_s");
  l["par.tasks"] = counter("par.tasks");
  const double p50 = task.count() > 0 ? task.quantile(0.5) : 0.0;
  const double max = task.count() > 0 ? task.snapshot().max : 0.0;
  l["par.task_p50_ms"] = p50 * 1e3;
  l["par.task_max_ms"] = max * 1e3;
  l["par.imbalance"] = ratio(max, p50);
  // edge cache
  l["cache.hits"] = stat("hits");
  l["cache.partials"] = stat("partials");
  l["cache.misses"] = stat("misses");
  l["cache.evictions"] = stat("cache_evictions");
  l["cache.partial_stores"] = stat("cache_partial_stores");
  l["cache.peak_gb"] = stat("peak_cache_bytes") / 1e9;
  l["cache.hit_ratio"] = stat("hit_ratio");
  // edge retry and admission
  const double deferred = stat("migrations_deferred");
  l["retry.deferred"] = deferred;
  l["retry.retries"] = stat("migration_retries");
  l["retry.abandoned"] = stat("migrations_abandoned");
  l["retry.delivery_ratio"] =
      deferred > 0 ? 1.0 - stat("migrations_abandoned") / deferred : 1.0;
  l["retry.peak_backlog_gb"] = stat("peak_deferred_backlog_bytes") / 1e9;
  l["admission.shed"] = stat("attaches_shed");
  l["admission.shed_rate"] =
      ratio(stat("attaches_shed"), stat("server_changes") + stat("attaches_shed"));
  // faults
  l["faults.server_failures"] = stat("server_failures");
  l["faults.local_fallback_queries"] = stat("local_fallback_queries");
  l["faults.unreachable_client_intervals"] =
      stat("unreachable_client_intervals");
  // migration and backhaul (orders as the timeseries counts them, which
  // both engines fill)
  const double orders = stat("ts.migration_orders");
  l["migration.orders"] = orders;
  l["migration.useful_ratio"] = ratio(stat("hits"), orders);
  l["backhaul.peak_uplink_mbps"] = stat("peak_uplink_mbps");
  // sim.simulator, partition, mobility
  const std::vector<obs::TraceEvent> events = obs::Tracer::global().events();
  l["sim.build_world_s"] = span_sum_s("sim.build_world");
  l["sim.run_s"] = span_sum_s("sim.run");
  l["sim.migrate_s"] = span_sum_s("sim.migrate");
  l["sim.interval_self_s"] = self_time_s(events, "sim.interval");
  l["partition.plan_latency_calls"] = counter("partition.plan_latency_calls");
  l["partition.plans"] = counter("partition.plans");
  l["partition.shortest_path_s"] = span_sum_s("partition.shortest_path");
  l["upload_order.candidates"] = counter("upload_order.candidates");
  l["upload_order.rescored"] = counter("upload_order.rescored");
  obs::Histogram& err = histogram("sim.predictor.abs_error_m");
  l["predictor.predictions"] = static_cast<double>(err.count());
  l["predictor.abs_error_p50_m"] = err.count() > 0 ? err.quantile(0.5) : 0.0;
  // obs streaming (the sharded engine streams its timeseries CSV)
  l["obs.timeseries_rows"] = stat("ts.rows");
  l["obs.timeseries_mb"] = stat("ts.bytes") / (1024.0 * 1024.0);
  return l;
}

// ---------------------------------------------------------------------------

void print_rep(const RepResult& r, const char* phase) {
  JsonLine("rep")
      .str("phase", phase)
      .num("wall_s", r.wall_s)
      .num("client_intervals", r.client_intervals)
      .nums("interval_wall_s", r.interval_wall_s)
      .object("stats", r.stats)
      .print();
}

/// Runs whole simulations until another one of the same length would end
/// past `seconds`, at least one.
void run_reps(Workload& w, double seconds, const char* phase) {
  const auto start = Clock::now();
  double last = 0.0;
  do {
    const RepResult r = w.run();
    last = r.wall_s;
    print_rep(r, phase);
  } while (since(start) + last <= seconds);
}

/// End-to-end run: several timed set-ups, then whole simulations for the
/// given time. The metric registry stays off.
void run_end_to_end(Workload& w, const Args& args) {
  constexpr int kSetups = 5;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    w.setup(args.seed);
    JsonLine("setup").num("wall_s", since(start)).print();
  }
  run_reps(w, args.seconds, "untraced");
}

/// Traced run: untraced simulations for half the time (the baseline of the
/// tracing overhead), then one set-up and one simulation with the obs
/// registry and the Tracer on. The spans are written out as a Chrome trace,
/// the registry as JSON beside it.
void run_traced(Workload& w, const Args& args) {
  w.setup(args.seed);
  run_reps(w, args.seconds / 2.0, "untraced");

  obs::Registry::global().reset();
  obs::set_enabled(true);
  obs::Tracer::global().start();
  // run.py reads the sharded engine's PERDNN_PHASE_TIMING line that
  // follows this marker on stderr.
  std::fprintf(stderr, "perfbench: traced run begins\n");
  w.setup(args.seed);
  const RepResult traced = w.run();
  obs::Tracer::global().stop();
  obs::set_enabled(false);
  print_rep(traced, "traced");

  const std::string stem = args.out_dir + "/" + args.workload + ".seed" +
                           std::to_string(args.seed);
  const std::string chrome = stem + ".trace.json";
  std::ofstream(chrome) << obs::Tracer::global().to_chrome_json() << '\n';
  std::ofstream(stem + ".registry.json")
      << obs::Registry::global().to_json() << '\n';
  JsonLine("trace")
      .num("trace_events",
           static_cast<double>(obs::Tracer::global().num_events()))
      .str("chrome_trace", chrome)
      .object("layers", layer_metrics(traced))
      .print();
}

[[noreturn]] void usage(const char* what) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload city|cache_pressure|chaos|replay "
               "--seed N --seconds S --trace 0|1 --out DIR\n",
               what);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("--seed needs an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0))
        usage("--seconds needs a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace needs 0 or 1");
      args.trace = value[0] == '1';
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    std::filesystem::create_directories(args.out_dir);
    const std::unique_ptr<Workload> w = make_workload(args.workload, args.out_dir);
    par::set_num_threads(kThreads);
    JsonLine("fingerprint")
        .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
        .str("simd_kernel", simd::active_kernel())
        .str("fastpath", fastpath::enabled() ? "on" : "off")
        .str("compiler", PERFBENCH_COMPILER)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .num("threads", par::num_threads())
        .print();
    if (args.trace) {
      run_traced(*w, args);
    } else {
      run_end_to_end(*w, args);
    }
    JsonLine("end")
        .num("peak_rss_bytes", static_cast<double>(obs::peak_rss_bytes()))
        .print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
