// Budgeted residency of the sharded engine's tile caches: the resident bytes
// of every tile plus an eviction index over its entries.
//
// A tile cache entry is one canonical-prefix length p in [0, K] and holds
// prefix_bytes[p] bytes. Budget admission evicts detached entries in
// (prefix desc, client desc) order — on the shared concave latency-by-prefix
// curve the tail of the largest prefix saves the least latency per byte —
// so each tile keeps its entries with p > 0 sorted in exactly that order and
// admission walks them from the top instead of scanning and sorting the
// tile's whole cache table. Entries with p == 0 hold no bytes and are never
// victims, so they stay out of the index; on a pressured tile they are most
// of the table (left behind by fully refused pushes and trimmed stores until
// their TTL runs out).
//
// A prefix only ever grows or is erased, so the owner of the cache tables
// reports three mutations — grow (store, push), erase (expiry, eviction) and
// clear (crash wipe) — and each keeps the byte tally and the index in step.
// Whether an entry may be evicted (the caller's own store, an attached
// owner) is decided by the caller during the walk, from live state.
//
// With no budget nothing is allocated and grow, erase and clear are no-ops;
// bytes, evict_for and fit are only meaningful under a budget.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace perdnn {

class TileResidency {
 public:
  TileResidency() = default;
  /// `prefix_bytes[p]` is the resident size of a prefix-p entry and must
  /// outlive this object. `budget` <= 0 disables the residency.
  TileResidency(std::size_t num_tiles, const std::vector<Bytes>& prefix_bytes,
                Bytes budget);

  bool enabled() const { return budget_ > 0; }
  Bytes budget() const { return budget_; }
  Bytes bytes(std::size_t tile) const { return bytes_[tile]; }

  /// Entry `c` on `tile` grew from prefix `from` to `to` (from 0 when new).
  void grow(std::size_t tile, ClientId c, int from, int to) {
    if (!enabled() || to <= from) return;
    if (from > 0) unindex(tile, key(from, c));
    index(tile, key(to, c));
    bytes_[tile] += (*prefix_bytes_)[static_cast<std::size_t>(to)] -
                    (*prefix_bytes_)[static_cast<std::size_t>(from)];
  }

  /// Entry `c`, resident at `prefix`, left `tile`.
  void erase(std::size_t tile, ClientId c, int prefix) {
    if (!enabled() || prefix == 0) return;
    unindex(tile, key(prefix, c));
    bytes_[tile] -= (*prefix_bytes_)[static_cast<std::size_t>(prefix)];
  }

  /// Every entry of `tile` left it.
  void clear(std::size_t tile) {
    if (!enabled()) return;
    index_[tile].clear();
    bytes_[tile] = 0;
  }

  /// Evicts entries of `tile` in (prefix desc, client desc) order until a
  /// store growing one entry from prefix `from` to `to` fits the budget or
  /// no candidate is left. `skip(c)` pins entry c for this walk;
  /// `on_evict(c, prefix, bytes)` is told of each victim after its bytes
  /// have left the tally, so it can drop the entry from its own table.
  template <class Skip, class OnEvict>
  void evict_for(std::size_t tile, int from, int to, Skip skip,
                 OnEvict on_evict) {
    const Bytes need = (*prefix_bytes_)[static_cast<std::size_t>(to)] -
                       (*prefix_bytes_)[static_cast<std::size_t>(from)];
    std::vector<std::uint64_t>& keys = index_[tile];
    // Ascending storage, walked from the back: erasing the current key only
    // shifts the pinned keys already passed over.
    for (std::size_t i = keys.size(); i-- > 0;) {
      if (bytes_[tile] + need <= budget_) return;
      const ClientId c = client_of(keys[i]);
      if (skip(c)) continue;
      const int prefix = prefix_of(keys[i]);
      const Bytes freed = (*prefix_bytes_)[static_cast<std::size_t>(prefix)];
      keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(i));
      bytes_[tile] -= freed;
      on_evict(c, prefix, freed);
    }
  }

  /// The longest prefix in [from, to] an entry at `from` can grow to
  /// without the tile exceeding its budget.
  int fit(std::size_t tile, int from, int to) const {
    // prefix_bytes is non-decreasing: the first prefix past the room left
    // ends the admissible run.
    const Bytes limit = budget_ - bytes_[tile] +
                        (*prefix_bytes_)[static_cast<std::size_t>(from)];
    const auto first = prefix_bytes_->begin();
    return static_cast<int>(
               std::upper_bound(first + from + 1, first + to + 1, limit) -
               first) -
           1;
  }

 private:
  static std::uint64_t key(int prefix, ClientId c) {
    return (static_cast<std::uint64_t>(prefix) << 32) |
           static_cast<std::uint32_t>(c);
  }
  static int prefix_of(std::uint64_t k) { return static_cast<int>(k >> 32); }
  static ClientId client_of(std::uint64_t k) {
    return static_cast<ClientId>(static_cast<std::uint32_t>(k));
  }
  void index(std::size_t tile, std::uint64_t k);
  void unindex(std::size_t tile, std::uint64_t k);

  const std::vector<Bytes>* prefix_bytes_ = nullptr;
  Bytes budget_ = 0;
  std::vector<Bytes> bytes_;
  /// Per tile, the keys of its entries with prefix > 0, ascending.
  std::vector<std::vector<std::uint64_t>> index_;
};

}  // namespace perdnn
