#include "runtime/placement.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace pocc::rt {

std::vector<std::vector<PartitionId>> place_partitions(
    std::vector<PartitionId> parts, std::uint32_t threads) {
  POCC_ASSERT_MSG(!parts.empty(), "a node group hosts at least one partition");
  std::sort(parts.begin(), parts.end());
  POCC_ASSERT_MSG(std::adjacent_find(parts.begin(), parts.end()) == parts.end(),
                  "duplicate partition in the node group");
  const auto n = static_cast<std::uint32_t>(parts.size());
  const std::uint32_t workers = threads == 0 ? n : std::min(threads, n);
  std::vector<std::vector<PartitionId>> by_worker(workers);
  for (std::uint32_t i = 0; i < n; ++i) {
    by_worker[i % workers].push_back(parts[i]);
  }
  return by_worker;
}

}  // namespace pocc::rt
