// Golden digests for the sharded engine. Every other sharded suite compares
// the engine only with itself (across threads, shards, SIMD, fastpath and
// resume), which a wrong rewrite of the exchange or apply path could pass by
// being consistently wrong. These constants pin the exact bytes of two small
// runs — metrics JSON, streamed timeseries CSV and streamed journal JSONL,
// each as an FNV-1a-64 digest — as recorded by the engine before its Phase B
// was made parallel, the way perfbench/expected.json pins exact statistics:
//
//   (a) plain proactive migration with probabilistic churn;
//   (b) a per-tile cache budget, a four-kind fault plan, admission control,
//       a flash crowd and the migration retry queue, all at once.
//
// A digest changes only when the simulated model changes on purpose; then
// rerun the test, read the digests it prints, and record why in CHANGES.md.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.hpp"
#include "faults/fault_plan.hpp"
#include "sim/shard_sim.hpp"
#include "sim/shard_world.hpp"
#include "snapshot/snapshot.hpp"
#include "test_paths.hpp"

namespace perdnn {
namespace {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Digests {
  std::uint64_t metrics = 0;
  std::uint64_t timeseries = 0;
  std::uint64_t journal = 0;
};

ShardWorldConfig plain_config() {
  ShardWorldConfig config;
  config.model = ModelName::kMobileNet;
  config.tiles_x = 4;
  config.tiles_y = 5;
  config.cell_radius_m = 50.0;
  config.num_clients = 80;
  config.num_intervals = 10;
  config.max_load_level = 6;
  config.offline_probability = 0.05;
  config.offline_intervals = 2;
  config.seed = 19;
  return config;
}

ShardWorldConfig stressed_config() {
  ShardWorldConfig config = plain_config();
  config.seed = 23;
  config.migration_retry.max_attempts = 4;
  config.migration_retry.initial_backoff_intervals = 1;
  config.migration_retry.max_backoff_intervals = 4;
  config.retry_queue_cap = 6;
  config.admission_max_attached = 6;
  config.flash_crowd_tiles = 2;
  config.flash_crowd_multiplier = 6.0;
  std::vector<FaultEvent> events;
  events.push_back({.kind = FaultKind::kServerCrash,
                    .at_interval = 3,
                    .duration_intervals = 2,
                    .server = 6});
  events.push_back({.kind = FaultKind::kServerCrash,
                    .at_interval = 6,
                    .duration_intervals = 2,
                    .server = 13});
  for (int s = 0; s < 20; s += 2)
    events.push_back({.kind = FaultKind::kBackhaulDegrade,
                      .at_interval = 4,
                      .duration_intervals = 2,
                      .server = s,
                      .peer = kAllServers,
                      .severity = 1.0});
  events.push_back({.kind = FaultKind::kBackhaulDegrade,
                    .at_interval = 1,
                    .duration_intervals = 3,
                    .server = 9,
                    .peer = kAllServers,
                    .severity = 0.7});
  for (int s = 10; s < 16; ++s)
    events.push_back({.kind = FaultKind::kTelemetryDropout,
                      .at_interval = 2,
                      .duration_intervals = 5,
                      .server = s});
  for (const ClientId c : {ClientId{3}, ClientId{31}, ClientId{64}})
    events.push_back({.kind = FaultKind::kClientDisconnect,
                      .at_interval = 2,
                      .duration_intervals = 3,
                      .client = c});
  config.fault_plan = FaultPlan(std::move(events));
  // The budget is set in units of the canonical prefix the world computes:
  // a tile holds at most two whole prefixes.
  config.cache_budget_bytes = 2 * build_shard_world(config).prefix_bytes.back();
  return config;
}

class ShardGoldenTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(ts_path().c_str());
    std::remove(jr_path().c_str());
    par::set_num_threads(0);
  }

  static std::string ts_path() { return unique_temp_path("golden_ts.csv"); }
  static std::string jr_path() { return unique_temp_path("golden_jr.jsonl"); }

  struct Run {
    Digests digests;
    SimulationMetrics metrics;
  };

  /// One run at `threads` x `shards`; with `resume_at` >= 0 the run is
  /// checkpointed after that interval on 3 shards and resumed on `shards`.
  static Run run(const ShardWorld& world, int threads, int shards,
                 int resume_at = -1) {
    par::set_num_threads(threads);
    ShardRunOptions options;
    options.num_shards = shards;
    options.timeseries_path = ts_path();
    options.journal_path = jr_path();
    snapshot::SimSnapshot snap;
    if (resume_at >= 0) {
      ShardRunOptions first = options;
      first.num_shards = 3;
      first.stop_after_interval = resume_at;
      first.capture_out = &snap;
      run_sharded_simulation(world, first);
      options.resume_from = &snap;
    }
    const SimulationMetrics metrics = run_sharded_simulation(world, options);
    const Digests d{fnv1a64(snapshot::metrics_to_json(metrics)),
                    fnv1a64(slurp(ts_path())), fnv1a64(slurp(jr_path()))};
    std::printf("digests threads=%d shards=%d resume_at=%d: metrics=0x%016"
                PRIx64 " timeseries=0x%016" PRIx64 " journal=0x%016" PRIx64
                "\n",
                threads, shards, resume_at, d.metrics, d.timeseries,
                d.journal);
    return {d, metrics};
  }

  /// Checks the golden digests for a serial run, two parallel ones and a
  /// resume at a different shard count; returns the serial run's metrics.
  static SimulationMetrics expect_golden(const ShardWorldConfig& config,
                                         const Digests& golden) {
    const ShardWorld world = build_shard_world(config);
    SimulationMetrics first;
    for (const auto& [threads, shards, resume_at] :
         std::vector<std::tuple<int, int, int>>{
             {1, 1, -1}, {2, 4, -1}, {4, 7, -1}, {2, 7, 4}}) {
      const Run r = run(world, threads, shards, resume_at);
      EXPECT_EQ(r.digests.metrics, golden.metrics)
          << "threads=" << threads << " shards=" << shards
          << " resume_at=" << resume_at;
      EXPECT_EQ(r.digests.timeseries, golden.timeseries)
          << "threads=" << threads << " shards=" << shards
          << " resume_at=" << resume_at;
      EXPECT_EQ(r.digests.journal, golden.journal)
          << "threads=" << threads << " shards=" << shards
          << " resume_at=" << resume_at;
      if (threads == 1) first = r.metrics;
    }
    return first;
  }
};

TEST_F(ShardGoldenTest, PlainProactiveRunMatchesRecordedDigests) {
  const SimulationMetrics m =
      expect_golden(plain_config(), {.metrics = 0xb0d1a356188cf72aULL,
                                     .timeseries = 0x47a55d7b26b0b262ULL,
                                     .journal = 0x0121a3c3ca5504f7ULL});
  EXPECT_GT(m.hits + m.partials, 0);
  EXPECT_GT(m.total_migrated_bytes, 0);
}

TEST_F(ShardGoldenTest, BudgetFaultsSheddingRetriesMatchRecordedDigests) {
  const SimulationMetrics m =
      expect_golden(stressed_config(), {.metrics = 0xed1674911daa3fe7ULL,
                                        .timeseries = 0x9735b98e0e576528ULL,
                                        .journal = 0xa8308c32671c2c23ULL});
  // Non-vacuity: every knob of the stressed scenario fired.
  EXPECT_GT(m.cache_evictions, 0);
  EXPECT_GT(m.server_failures, 0);
  EXPECT_GT(m.client_disconnect_events, 0);
  EXPECT_GT(m.degraded_attaches, 0);
  EXPECT_GT(m.attaches_shed, 0);
  EXPECT_GT(m.migrations_deferred, 0);
  EXPECT_GT(m.migration_retries, 0);
}

}  // namespace
}  // namespace perdnn
