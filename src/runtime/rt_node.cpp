#include "runtime/rt_node.hpp"

#include <chrono>

namespace pocc::rt {

namespace {
const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();
}

Timestamp steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

}  // namespace pocc::rt
