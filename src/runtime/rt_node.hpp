// The wall-clock runtime's two shared seams: the process-wide monotonic
// time base every engine clock, timer and transport backoff reads, and the
// Router that carries a node's outbound messages out of its host
// (net/tcp_node_host.hpp encodes them onto sockets).
#pragma once

#include "common/types.hpp"
#include "proto/messages.hpp"

namespace pocc::rt {

/// Wall-clock microseconds on a monotonic clock, shared by every node.
Timestamp steady_now_us();

/// Where a node's outbound messages go. `from` is always the sending node
/// (kept explicit so a router can serve several nodes).
class Router {
 public:
  virtual ~Router() = default;
  virtual void route(NodeId from, NodeId to, proto::Message m) = 0;
  virtual void route_to_client(NodeId from, ClientId client,
                               proto::Message m) = 0;
};

}  // namespace pocc::rt
