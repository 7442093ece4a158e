// Partition → worker placement inside one process: the single rule that
// rt::NodeGroup pins its engines by, that net::TcpNodeHost sizes its event
// loops by (one loop per worker), and that net::TcpClientPool dials by (one
// socket per worker), so the client never disagrees with the server about
// where a partition lives.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace pocc::rt {

/// The partitions each worker of a process hosts, indexed by worker. The
/// worker count is `threads` clamped to the number of partitions (0 means
/// one worker per partition); partition i of the sorted `parts` lives on
/// worker i mod that count, so each worker's list is sorted and its front
/// is the lowest partition it hosts. `parts` must be non-empty and free of
/// duplicates.
std::vector<std::vector<PartitionId>> place_partitions(
    std::vector<PartitionId> parts, std::uint32_t threads);

}  // namespace pocc::rt
