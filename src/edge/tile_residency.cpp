#include "edge/tile_residency.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace perdnn {

TileResidency::TileResidency(std::size_t num_tiles,
                             const std::vector<Bytes>& prefix_bytes,
                             Bytes budget)
    : prefix_bytes_(&prefix_bytes), budget_(std::max<Bytes>(budget, 0)) {
  if (!enabled()) return;
  bytes_.assign(num_tiles, 0);
  index_.resize(num_tiles);
}

void TileResidency::index(std::size_t tile, std::uint64_t k) {
  std::vector<std::uint64_t>& keys = index_[tile];
  const auto it = std::lower_bound(keys.begin(), keys.end(), k);
  PERDNN_CHECK_MSG(it == keys.end() || *it != k,
                   "tile residency: duplicate entry on tile " << tile);
  keys.insert(it, k);
}

void TileResidency::unindex(std::size_t tile, std::uint64_t k) {
  std::vector<std::uint64_t>& keys = index_[tile];
  const auto it = std::lower_bound(keys.begin(), keys.end(), k);
  PERDNN_CHECK_MSG(it != keys.end() && *it == k,
                   "tile residency: unknown entry on tile " << tile);
  keys.erase(it);
}

}  // namespace perdnn
