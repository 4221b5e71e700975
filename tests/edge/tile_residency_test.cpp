#include "edge/tile_residency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace perdnn {
namespace {

constexpr int kTiles = 3;
constexpr int kClients = 24;
constexpr int kMaxPrefix = 6;

/// Brute-force model of the residency: every entry of every tile (prefix-0
/// entries included), scanned and sorted on each question.
struct Reference {
  std::vector<Bytes> prefix_bytes;
  Bytes budget = 0;
  std::vector<std::map<ClientId, int>> tiles{kTiles};

  Bytes bytes(int tile) const {
    Bytes sum = 0;
    for (const auto& [c, prefix] : tiles[static_cast<std::size_t>(tile)])
      sum += prefix_bytes[static_cast<std::size_t>(prefix)];
    return sum;
  }

  /// Eviction candidates in (prefix desc, client desc) order.
  std::vector<std::pair<int, ClientId>> order(
      int tile, const std::set<ClientId>& pinned) const {
    std::vector<std::pair<int, ClientId>> out;
    for (const auto& [c, prefix] : tiles[static_cast<std::size_t>(tile)])
      if (prefix > 0 && pinned.count(c) == 0) out.emplace_back(prefix, c);
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return b < a; });
    return out;
  }

  std::vector<std::pair<int, ClientId>> evict_for(
      int tile, int from, int to, const std::set<ClientId>& pinned) {
    const Bytes need = prefix_bytes[static_cast<std::size_t>(to)] -
                       prefix_bytes[static_cast<std::size_t>(from)];
    std::vector<std::pair<int, ClientId>> victims;
    for (const auto& [prefix, c] : order(tile, pinned)) {
      if (bytes(tile) + need <= budget) break;
      tiles[static_cast<std::size_t>(tile)].erase(c);
      victims.emplace_back(prefix, c);
    }
    return victims;
  }

  int fit(int tile, int from, int to) const {
    int p = to;
    while (p > from && bytes(tile) + prefix_bytes[static_cast<std::size_t>(p)] -
                               prefix_bytes[static_cast<std::size_t>(from)] >
                           budget)
      --p;
    return p;
  }
};

std::vector<std::pair<int, ClientId>> evict_all(
    TileResidency residency, int tile, const std::set<ClientId>& pinned) {
  // From prefix 0 to the full prefix never fits a budget below the full
  // prefix, so the walk visits every unpinned entry in eviction order.
  std::vector<std::pair<int, ClientId>> victims;
  residency.evict_for(
      static_cast<std::size_t>(tile), 0, kMaxPrefix,
      [&](ClientId c) { return pinned.count(c) != 0; },
      [&](ClientId c, int prefix, Bytes) { victims.emplace_back(prefix, c); });
  return victims;
}

std::set<ClientId> random_pinned(Rng& rng) {
  std::set<ClientId> pinned;
  for (ClientId c = 0; c < kClients; ++c)
    if (rng.bernoulli(0.3)) pinned.insert(c);
  return pinned;
}

TEST(TileResidencyTest, DisabledWithoutBudgetAndAllocatesNothing) {
  const std::vector<Bytes> prefix_bytes = {0, 10, 30};
  TileResidency residency(4, prefix_bytes, 0);
  EXPECT_FALSE(residency.enabled());
  residency.grow(1, 7, 0, 2);
  residency.erase(1, 7, 2);
  residency.clear(1);
  EXPECT_FALSE(TileResidency().enabled());
}

TEST(TileResidencyTest, EvictsLargestPrefixThenHighestClientFirst) {
  const std::vector<Bytes> prefix_bytes = {0, 10, 30, 60};
  TileResidency residency(1, prefix_bytes, 100);
  residency.grow(0, 4, 0, 2);
  residency.grow(0, 9, 0, 2);
  residency.grow(0, 5, 0, 1);
  residency.grow(0, 1, 0, 3);  // pinned below
  EXPECT_EQ(residency.bytes(0), 130);
  std::vector<ClientId> victims;
  // A new 0 -> 2 store needs 30 bytes: 130 + 30 fits 100 only after 60 go.
  residency.evict_for(
      0, 0, 2, [](ClientId c) { return c == 1; },
      [&](ClientId c, int, Bytes) { victims.push_back(c); });
  EXPECT_EQ(victims, (std::vector<ClientId>{9, 4}));
  EXPECT_EQ(residency.bytes(0), 70);
  EXPECT_EQ(residency.fit(0, 0, 3), 2);
}

TEST(TileResidencyTest, RejectsUnknownAndDuplicateEntries) {
  const std::vector<Bytes> prefix_bytes = {0, 10, 30};
  TileResidency residency(1, prefix_bytes, 100);
  residency.grow(0, 3, 0, 1);
  EXPECT_THROW(residency.grow(0, 3, 0, 1), std::logic_error);
  EXPECT_THROW(residency.erase(0, 4, 1), std::logic_error);
  EXPECT_THROW(residency.grow(0, 5, 1, 2), std::logic_error);
}

TEST(TileResidencyTest, MatchesBruteForceScanAndSortOnRandomSequences) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    Rng rng(seed);
    Reference ref;
    ref.prefix_bytes.push_back(0);
    // Layers without weights (pooling, activations) add no bytes.
    for (int p = 1; p <= kMaxPrefix; ++p)
      ref.prefix_bytes.push_back(ref.prefix_bytes.back() +
                                 rng.uniform_int(p == 1 ? 2 : 0, 40));
    // Below the full prefix, so evict_all walks every candidate.
    const Bytes full = ref.prefix_bytes.back();
    ref.budget = full - 1 - rng.uniform_int(0, full / 4);
    TileResidency residency(kTiles, ref.prefix_bytes, ref.budget);

    for (int step = 0; step < 4000; ++step) {
      const int tile = static_cast<int>(rng.uniform_int(0, kTiles - 1));
      auto& entries = ref.tiles[static_cast<std::size_t>(tile)];
      const auto ut = static_cast<std::size_t>(tile);
      const double op = rng.uniform();
      if (op < 0.5) {  // grow (or create a zero-prefix entry)
        const auto c = static_cast<ClientId>(rng.uniform_int(0, kClients - 1));
        const auto it = entries.find(c);
        const int from = it != entries.end() ? it->second : 0;
        if (from == kMaxPrefix) continue;
        const int to = static_cast<int>(rng.uniform_int(
            it != entries.end() ? from + 1 : 0, kMaxPrefix));
        residency.grow(ut, c, from, to);
        entries[c] = to;
      } else if (op < 0.75) {  // erase (expiry)
        if (entries.empty()) continue;
        auto it = entries.begin();
        std::advance(it, rng.uniform_int(
                             0, static_cast<std::int64_t>(entries.size()) - 1));
        residency.erase(ut, it->first, it->second);
        entries.erase(it);
      } else if (op < 0.78) {  // crash wipe
        residency.clear(ut);
        entries.clear();
      } else {  // admission: evict, then trim
        const std::set<ClientId> pinned = random_pinned(rng);
        const auto c = static_cast<ClientId>(rng.uniform_int(0, kClients - 1));
        const auto it = entries.find(c);
        const int from = it != entries.end() ? it->second : 0;
        if (from == kMaxPrefix) continue;
        const int to = static_cast<int>(rng.uniform_int(from + 1, kMaxPrefix));
        std::set<ClientId> skip = pinned;
        skip.insert(c);
        std::vector<std::pair<int, ClientId>> victims;
        residency.evict_for(
            ut, from, to, [&](ClientId v) { return skip.count(v) != 0; },
            [&](ClientId v, int prefix, Bytes bytes) {
              EXPECT_EQ(bytes, ref.prefix_bytes[static_cast<std::size_t>(
                                   prefix)]);
              victims.emplace_back(prefix, v);
            });
        ASSERT_EQ(victims, ref.evict_for(tile, from, to, skip))
            << "seed " << seed << " step " << step;
        const int p = residency.fit(ut, from, to);
        ASSERT_EQ(p, ref.fit(tile, from, to));
        residency.grow(ut, c, from, p);
        entries[c] = p;
      }

      for (int s = 0; s < kTiles; ++s) {
        ASSERT_EQ(residency.bytes(static_cast<std::size_t>(s)), ref.bytes(s))
            << "seed " << seed << " step " << step << " tile " << s;
        const std::set<ClientId> pinned = random_pinned(rng);
        ASSERT_EQ(evict_all(residency, s, pinned), ref.order(s, pinned))
            << "seed " << seed << " step " << step << " tile " << s;
      }
    }
  }
}

}  // namespace
}  // namespace perdnn
