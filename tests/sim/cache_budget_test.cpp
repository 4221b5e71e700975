// Tier-1 gate for the memory-budgeted layer caches, in both engines:
//
//   * the budget invariant — per-server resident cache bytes never exceed
//     cache_budget_bytes in any interval (checked here via the exported
//     timeseries rows; the engines also assert it internally);
//   * determinism — a budgeted sharded run is byte-identical across
//     threads x shards and across a kill -9 checkpoint/resume, also with a
//     server crash wiping a pressured tile mid-run;
//   * resume validation — a sharded checkpoint whose cache residency is
//     inconsistent (duplicate entries, a tile over budget) is rejected;
//   * output compatibility — an unbudgeted run keeps the schema-2 CSV and
//     the pre-budget metrics JSON shape, and a never-binding budget changes
//     no journal event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "faults/fault_plan.hpp"
#include "mobility/trace_gen.hpp"
#include "obs/journal.hpp"
#include "obs/timeseries.hpp"
#include "sim/shard_sim.hpp"
#include "sim/shard_world.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"
#include "test_paths.hpp"

namespace perdnn {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Parses the named column out of a schema-3 timeseries CSV (comment lines
/// skipped), returning one value per data row.
std::vector<long long> csv_column(const std::string& csv,
                                  const std::string& column) {
  std::vector<long long> out;
  std::istringstream in(csv);
  std::string line;
  int index = -1;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string field;
    if (index < 0) {  // header line
      for (int i = 0; std::getline(fields, field, ','); ++i)
        if (field == column) index = i;
      EXPECT_GE(index, 0) << "column " << column << " missing from header";
      continue;
    }
    for (int i = 0; i <= index; ++i) std::getline(fields, field, ',');
    out.push_back(std::stoll(field));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Classic trace-replay engine.
// ---------------------------------------------------------------------------

class ClassicCacheBudgetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CampusTraceConfig train_config;
    train_config.num_users = 8;
    train_config.duration = 1.0 * 3600.0;
    train_config.sample_interval = 20.0;
    train_config.seed = 100;
    CampusTraceConfig test_config = train_config;
    test_config.num_users = 6;
    test_config.seed = 300;

    config_ = new SimulationConfig;
    config_->model = ModelName::kMobileNet;
    config_->policy = MigrationPolicy::kProactive;
    config_->migration_radius_m = 100.0;
    config_->routing_fallback = true;
    config_->seed = 11;

    world_ = new SimulationWorld(
        build_world(*config_, generate_campus_traces(train_config),
                    generate_campus_traces(test_config)));
  }

  static void TearDownTestSuite() {
    delete world_;
    delete config_;
    world_ = nullptr;
    config_ = nullptr;
    par::set_num_threads(0);
  }

  static SimulationConfig* config_;
  static SimulationWorld* world_;
};

SimulationConfig* ClassicCacheBudgetTest::config_ = nullptr;
SimulationWorld* ClassicCacheBudgetTest::world_ = nullptr;

TEST_F(ClassicCacheBudgetTest, UnbudgetedRunKeepsSchema2AndBareMetricsJson) {
  obs::SimTimeseries timeseries;
  const SimulationMetrics metrics =
      run_simulation(*config_, *world_, &timeseries, {});
  EXPECT_EQ(timeseries.csv_schema(), obs::SimTimeseries::kCsvSchemaVersion);
  std::ostringstream csv;
  timeseries.write_csv(csv);
  EXPECT_EQ(csv.str().find("cache_bytes"), std::string::npos);
  const std::string json = snapshot::metrics_to_json(metrics);
  EXPECT_EQ(json.find("cache_evictions"), std::string::npos);
  EXPECT_EQ(json.find("peak_cache_bytes"), std::string::npos);
}

TEST_F(ClassicCacheBudgetTest, NeverBindingBudgetChangesNoJournalEvent) {
  const auto journal_of = [&](Bytes budget) {
    obs::Journal journal;
    SimulationConfig config = *config_;
    config.cache_budget_bytes = budget;
    SimulationRunOptions options;
    options.journal = &journal;
    run_simulation(config, *world_, nullptr, options);
    return obs::journal_to_jsonl(journal.events());
  };
  // A budget no store can ever reach admits everything and evicts nothing:
  // the journal stream must match the unbudgeted run event for event.
  EXPECT_EQ(journal_of(0), journal_of(Bytes{1} << 60));
}

TEST_F(ClassicCacheBudgetTest, BudgetInvariantHoldsAndPressureIsVisible) {
  // Measure the run's natural peak residency first, then rerun with a
  // budget tight enough to bind on the busy servers.
  SimulationConfig roomy = *config_;
  roomy.cache_budget_bytes = Bytes{1} << 60;
  obs::SimTimeseries unbounded;
  const SimulationMetrics free_run =
      run_simulation(roomy, *world_, &unbounded, {});
  ASSERT_GT(free_run.peak_cache_bytes, 0);
  EXPECT_EQ(free_run.cache_evictions, 0);
  EXPECT_EQ(free_run.cache_partial_stores, 0);
  std::int64_t peak_row_bytes = 0;
  for (const auto& row : unbounded.rows())
    peak_row_bytes = std::max(peak_row_bytes, row.cache_bytes);
  ASSERT_GT(peak_row_bytes, 0);

  SimulationConfig tight = *config_;
  tight.cache_budget_bytes = peak_row_bytes / 2;
  obs::SimTimeseries timeseries;
  const SimulationMetrics metrics =
      run_simulation(tight, *world_, &timeseries, {});
  EXPECT_EQ(timeseries.csv_schema(),
            obs::SimTimeseries::kCsvCacheSchemaVersion);
  for (const auto& row : timeseries.rows())
    ASSERT_LE(row.cache_bytes, tight.cache_budget_bytes)
        << "interval " << row.interval << " server " << row.server;
  // The tightened budget actually bit: evictions or trims happened, and
  // the metrics aggregate reconciles with the rows.
  EXPECT_GT(metrics.cache_evictions + metrics.cache_partial_stores, 0);
  EXPECT_EQ(timeseries.total_cache_evictions(), metrics.cache_evictions);
  EXPECT_EQ(timeseries.total_cache_partial_stores(),
            metrics.cache_partial_stores);
  EXPECT_LE(metrics.peak_cache_bytes, free_run.peak_cache_bytes);
}

TEST_F(ClassicCacheBudgetTest, BudgetedResumeIsByteIdentical) {
  SimulationConfig config = *config_;
  config.cache_budget_bytes = mb_to_bytes(2.0);

  par::set_num_threads(2);
  obs::SimTimeseries reference_ts;
  const SimulationMetrics reference =
      run_simulation(config, *world_, &reference_ts, {});
  std::ostringstream reference_csv;
  reference_ts.write_csv(reference_csv);

  snapshot::SimSnapshot snap;
  {
    obs::SimTimeseries scratch;
    SimulationRunOptions options;
    options.stop_after_interval = 4;
    options.capture_out = &snap;
    run_simulation(config, *world_, &scratch, options);
  }
  // The v5 wire codec round-trips the budgeted cache state (entry bytes).
  const snapshot::SimSnapshot decoded =
      snapshot::decode(snapshot::encode(snap));

  for (const int threads : {1, 8}) {
    par::set_num_threads(threads);
    obs::SimTimeseries resumed_ts;
    SimulationRunOptions options;
    options.resume_from = &decoded;
    const SimulationMetrics resumed =
        run_simulation(config, *world_, &resumed_ts, options);
    EXPECT_EQ(snapshot::metrics_to_json(resumed),
              snapshot::metrics_to_json(reference))
        << "threads=" << threads;
    std::ostringstream resumed_csv;
    resumed_ts.write_csv(resumed_csv);
    EXPECT_EQ(resumed_csv.str(), reference_csv.str())
        << "threads=" << threads;
  }
  par::set_num_threads(0);
}

// ---------------------------------------------------------------------------
// Sharded city-scale engine.
// ---------------------------------------------------------------------------

class ShardCacheBudgetTest : public ::testing::Test {
 protected:
  static ShardWorldConfig base_config() {
    ShardWorldConfig config;
    config.model = ModelName::kMobileNet;
    config.tiles_x = 4;
    config.tiles_y = 5;
    config.cell_radius_m = 50.0;
    config.num_clients = 60;
    config.num_intervals = 10;
    config.max_load_level = 6;
    config.seed = 7;
    return config;
  }

  static void SetUpTestSuite() {
    ShardWorldConfig config = base_config();
    // A tile holds at most two full canonical prefixes: with ~3 clients per
    // tile on average the budget binds constantly.
    const ShardWorld probe = build_shard_world(config);
    config.cache_budget_bytes = 2 * probe.prefix_bytes.back();
    ASSERT_GT(config.cache_budget_bytes, 0);
    world_ = new ShardWorld(build_shard_world(config));
  }

  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
    par::set_num_threads(0);
  }

  void TearDown() override {
    std::remove(ts_path().c_str());
    std::remove(jr_path().c_str());
  }

  static std::string ts_path() {
    return unique_temp_path("budget_ts.csv");
  }
  static std::string jr_path() {
    return unique_temp_path("budget_jr.jsonl");
  }

  struct RunResult {
    std::string metrics;
    std::string timeseries;
    std::string journal;
    SimulationMetrics stats;
  };

  static RunResult run_at(const ShardWorld& world, int threads, int shards) {
    par::set_num_threads(threads);
    ShardRunOptions options;
    options.num_shards = shards;
    options.timeseries_path = ts_path();
    options.journal_path = jr_path();
    const SimulationMetrics metrics = run_sharded_simulation(world, options);
    par::set_num_threads(0);
    return {snapshot::metrics_to_json(metrics), slurp(ts_path()),
            slurp(jr_path()), metrics};
  }

  /// Checkpoints a 16-shard run after interval `kill_at`, tears both output
  /// files as a kill -9 mid-write would, and resumes the decoded checkpoint
  /// on 4 shards to the end of the run.
  static RunResult kill_and_resume(const ShardWorld& world, int kill_at) {
    par::set_num_threads(1);
    snapshot::SimSnapshot snap;
    {
      ShardRunOptions options;
      options.num_shards = 16;
      options.timeseries_path = ts_path();
      options.journal_path = jr_path();
      options.stop_after_interval = kill_at;
      options.capture_out = &snap;
      run_sharded_simulation(world, options);
    }
    EXPECT_TRUE(snap.has_shard);

    // Garbage past the checkpoint offsets must be discarded on resume.
    {
      std::ofstream ts(ts_path(), std::ios::binary | std::ios::app);
      ts << "9,9,9,garbage-past-the-checkpo";
      std::ofstream jr(jr_path(), std::ios::binary | std::ios::app);
      jr << "{\"interval\":999,\"kind\":\"atta";
    }

    const snapshot::SimSnapshot decoded =
        snapshot::decode(snapshot::encode(snap));
    ShardRunOptions options;
    options.num_shards = 4;
    options.timeseries_path = ts_path();
    options.journal_path = jr_path();
    options.resume_from = &decoded;
    const SimulationMetrics resumed = run_sharded_simulation(world, options);
    par::set_num_threads(0);
    return {snapshot::metrics_to_json(resumed), slurp(ts_path()),
            slurp(jr_path()), resumed};
  }

  /// A real mid-run checkpoint of the budgeted world (no output files).
  static snapshot::SimSnapshot capture_mid_run() {
    snapshot::SimSnapshot snap;
    ShardRunOptions options;
    options.num_shards = 4;
    options.stop_after_interval = 4;
    options.capture_out = &snap;
    run_sharded_simulation(*world_, options);
    return snap;
  }

  /// Round-trips `snap` through the wire codec and resumes from it.
  static void resume_from(const snapshot::SimSnapshot& snap) {
    const snapshot::SimSnapshot decoded =
        snapshot::decode(snapshot::encode(snap));
    ShardRunOptions options;
    options.num_shards = 4;
    options.resume_from = &decoded;
    run_sharded_simulation(*world_, options);
  }

  static ShardWorld* world_;
};

ShardWorld* ShardCacheBudgetTest::world_ = nullptr;

TEST_F(ShardCacheBudgetTest, BudgetedMatrixByteIdenticalAcrossThreadsShards) {
  const RunResult baseline = run_at(*world_, 1, 1);
  ASSERT_FALSE(baseline.metrics.empty());
  // The scenario is under real pressure, not trivially under budget
  // (metrics_to_json only emits the counters when they are non-zero).
  EXPECT_TRUE(
      baseline.metrics.find("\"cache_evictions\"") != std::string::npos ||
      baseline.metrics.find("\"cache_partial_stores\"") != std::string::npos)
      << baseline.metrics;

  for (const int shards : {1, 4, 16}) {
    for (const int threads : {1, 2, 8}) {
      const RunResult r = run_at(*world_, threads, shards);
      EXPECT_EQ(baseline.metrics, r.metrics)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(baseline.timeseries, r.timeseries)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(baseline.journal, r.journal)
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

TEST_F(ShardCacheBudgetTest, ResidentBytesNeverExceedBudgetInAnyInterval) {
  const RunResult r = run_at(*world_, 2, 4);
  EXPECT_NE(r.timeseries.find("# schema=3"), std::string::npos);
  const auto bytes = csv_column(r.timeseries, "cache_bytes");
  ASSERT_EQ(bytes.size(),
            static_cast<std::size_t>(world_->config.num_intervals *
                                     world_->config.num_servers()));
  long long peak = 0;
  for (const long long b : bytes) {
    ASSERT_LE(b, world_->config.cache_budget_bytes);
    peak = std::max(peak, b);
  }
  EXPECT_GT(peak, 0);
  // The budget journal vocabulary is present and carries the byte payloads
  // perdnn_obs keys on (budget evictions have bytes > 0).
  EXPECT_NE(r.journal.find("\"kind\":\"cache_evict\""), std::string::npos);
}

TEST_F(ShardCacheBudgetTest, BudgetedResumeAfterKillConvergesByteIdentical) {
  const RunResult full = run_at(*world_, 2, 4);
  // Every kill point: the restored eviction index must pick the same
  // victims as the one the uninterrupted run built up incrementally.
  for (int kill_at = 1; kill_at < world_->config.num_intervals; ++kill_at) {
    const RunResult resumed = kill_and_resume(*world_, kill_at);
    EXPECT_EQ(full.metrics, resumed.metrics) << "kill_at=" << kill_at;
    EXPECT_EQ(full.timeseries, resumed.timeseries) << "kill_at=" << kill_at;
    EXPECT_EQ(full.journal, resumed.journal) << "kill_at=" << kill_at;
  }
}

TEST_F(ShardCacheBudgetTest, CrashOnPressuredTileIsByteIdenticalAndResumes) {
  // Crash the tile with the most budget evictions in the fault-free run and
  // throttle the backhaul of the runner-up, so the crash wipe lands on a
  // full eviction index and throttled pushes keep feeding admissions.
  const RunResult calm = run_at(*world_, 1, 1);
  const auto rows_server = csv_column(calm.timeseries, "server");
  const auto rows_evictions = csv_column(calm.timeseries, "cache_evictions");
  ASSERT_EQ(rows_server.size(), rows_evictions.size());
  std::vector<long long> per_tile(
      static_cast<std::size_t>(world_->config.num_servers()), 0);
  for (std::size_t i = 0; i < rows_server.size(); ++i)
    per_tile[static_cast<std::size_t>(rows_server[i])] += rows_evictions[i];
  std::vector<ServerId> by_pressure(per_tile.size());
  for (std::size_t s = 0; s < per_tile.size(); ++s)
    by_pressure[s] = static_cast<ServerId>(s);
  std::stable_sort(by_pressure.begin(), by_pressure.end(),
                   [&](ServerId a, ServerId b) {
                     return per_tile[static_cast<std::size_t>(a)] >
                            per_tile[static_cast<std::size_t>(b)];
                   });
  const ServerId hot = by_pressure[0];
  ASSERT_GT(per_tile[static_cast<std::size_t>(hot)], 0);

  ShardWorldConfig config = world_->config;
  config.fault_plan = FaultPlan(
      {{.kind = FaultKind::kServerCrash,
        .at_interval = 4,
        .duration_intervals = 3,
        .server = hot},
       {.kind = FaultKind::kBackhaulDegrade,
        .at_interval = 2,
        .duration_intervals = 5,
        .server = by_pressure[1],
        .peer = kAllServers,
        .severity = 0.6}});
  const ShardWorld faulted = build_shard_world(config);

  const RunResult baseline = run_at(faulted, 1, 1);
  EXPECT_GT(baseline.stats.cache_evictions, 0);
  EXPECT_GT(baseline.stats.server_failures, 0);
  // The crash wiped a tile that held resident bytes the interval before.
  const auto rows_interval = csv_column(baseline.timeseries, "interval");
  const auto rows_bytes = csv_column(baseline.timeseries, "cache_bytes");
  const auto faulted_server = csv_column(baseline.timeseries, "server");
  long long before_crash = -1, during_crash = -1;
  for (std::size_t i = 0; i < rows_interval.size(); ++i) {
    if (faulted_server[i] != hot) continue;
    if (rows_interval[i] == 3) before_crash = rows_bytes[i];
    if (rows_interval[i] == 4) during_crash = rows_bytes[i];
  }
  EXPECT_GT(before_crash, 0);
  EXPECT_EQ(during_crash, 0);

  for (const int shards : {1, 4, 16}) {
    for (const int threads : {1, 2, 8}) {
      const RunResult r = run_at(faulted, threads, shards);
      EXPECT_EQ(baseline.metrics, r.metrics)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(baseline.timeseries, r.timeseries)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(baseline.journal, r.journal)
          << "threads=" << threads << " shards=" << shards;
    }
  }

  // Checkpoint inside the crash window [4, 7): the tile is down and empty.
  const RunResult resumed = kill_and_resume(faulted, 5);
  EXPECT_EQ(baseline.metrics, resumed.metrics);
  EXPECT_EQ(baseline.timeseries, resumed.timeseries);
  EXPECT_EQ(baseline.journal, resumed.journal);
}

TEST_F(ShardCacheBudgetTest, AdmissionSheddingUnderBudgetIsByteIdentical) {
  // Budget eviction and admission shedding in the same run: an eviction
  // walk pins entries whose owner is attached to the tile (read from the
  // clients' live server slots), while shedding resets the server slot of a
  // refused client on another tile in the same interval.
  ShardWorldConfig config = world_->config;
  config.admission_max_attached = 4;
  config.flash_crowd_tiles = 2;
  config.flash_crowd_multiplier = 8.0;
  const ShardWorld crowded = build_shard_world(config);

  const RunResult baseline = run_at(crowded, 1, 1);
  EXPECT_GT(baseline.stats.attaches_shed, 0);
  EXPECT_GT(baseline.stats.cache_evictions, 0);
  const auto evictions = csv_column(baseline.timeseries, "cache_evictions");
  const auto local = csv_column(baseline.timeseries, "local_queries");
  ASSERT_EQ(evictions.size(), local.size());
  bool both = false;
  for (std::size_t i = 0; i < evictions.size(); ++i)
    both = both || (evictions[i] > 0 && local[i] > 0);
  EXPECT_TRUE(both) << "no tile both evicted and served shed clients locally "
                       "in one interval";
  EXPECT_NE(baseline.journal.find("\"kind\":\"attach_shed\""),
            std::string::npos);

  for (const int shards : {1, 4, 16}) {
    for (const int threads : {1, 2, 8}) {
      const RunResult r = run_at(crowded, threads, shards);
      EXPECT_EQ(baseline.metrics, r.metrics)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(baseline.timeseries, r.timeseries)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(baseline.journal, r.journal)
          << "threads=" << threads << " shards=" << shards;
    }
  }

  // Checkpointed on 16 shards, resumed on 4.
  const RunResult resumed = kill_and_resume(crowded, 5);
  EXPECT_EQ(baseline.metrics, resumed.metrics);
  EXPECT_EQ(baseline.timeseries, resumed.timeseries);
  EXPECT_EQ(baseline.journal, resumed.journal);
}

TEST_F(ShardCacheBudgetTest, ResumeRejectsDuplicateCacheEntry) {
  snapshot::SimSnapshot snap = capture_mid_run();
  snapshot::ShardSimState& s = snap.shard;
  const auto it = std::find_if(s.entry_prefix.begin(), s.entry_prefix.end(),
                               [](std::uint32_t p) { return p > 0; });
  ASSERT_NE(it, s.entry_prefix.end());
  const auto i = it - s.entry_prefix.begin();
  // The same (server, client) entry twice: its bytes would count twice.
  s.entry_server.insert(s.entry_server.begin() + i, s.entry_server[i]);
  s.entry_client.insert(s.entry_client.begin() + i, s.entry_client[i]);
  s.entry_expire.insert(s.entry_expire.begin() + i, s.entry_expire[i]);
  s.entry_prefix.insert(s.entry_prefix.begin() + i, s.entry_prefix[i]);
  EXPECT_THROW(resume_from(snap), snapshot::SnapshotError);
}

TEST_F(ShardCacheBudgetTest, ResumeRejectsTileResidencyOverBudget) {
  snapshot::SimSnapshot snap = capture_mid_run();
  snapshot::ShardSimState& s = snap.shard;
  // Three more full canonical prefixes on server 0 than the budget of two
  // can ever hold, from clients with no entry there yet.
  const auto full = static_cast<std::uint32_t>(world_->prefix_bytes.size() - 1);
  int added = 0;
  for (ClientId c = 0; c < world_->config.num_clients && added < 3; ++c) {
    bool present = false;
    for (std::size_t i = 0; i < s.entry_server.size(); ++i)
      present = present || (s.entry_server[i] == 0 && s.entry_client[i] == c);
    if (present) continue;
    s.entry_server.push_back(0);
    s.entry_client.push_back(c);
    s.entry_expire.push_back(snap.next_interval + 1);
    s.entry_prefix.push_back(full);
    ++added;
  }
  ASSERT_EQ(added, 3);
  EXPECT_THROW(resume_from(snap), snapshot::SnapshotError);
}

TEST_F(ShardCacheBudgetTest, UnbudgetedShardRunKeepsSchema2) {
  const ShardWorld plain = build_shard_world(base_config());
  const RunResult r = run_at(plain, 2, 4);
  EXPECT_NE(r.timeseries.find("# schema=2"), std::string::npos);
  EXPECT_EQ(r.timeseries.find("cache_bytes"), std::string::npos);
  EXPECT_EQ(r.metrics.find("cache_evictions"), std::string::npos);
}

}  // namespace
}  // namespace perdnn
