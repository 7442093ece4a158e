// Quickstart for the TCP deployment layer: a 2-DC x 2-partition cluster
// hosted by TWO multi-partition TcpNodeHosts (one per DC, both partitions on
// a small worker pool) behind real localhost sockets (ephemeral ports),
// driven by blocking TcpSessions — the in-process twin of a `poccd` +
// `pocc_loadgen` deployment (see README "Running a real cluster").
// Everything here is the same engine code the simulator runs; only the host
// differs: cross-partition traffic within a DC is an in-process queue push,
// inter-DC replication rides coalesced Batch frames.
#include <cstdio>
#include <memory>
#include <vector>

#include "net/tcp_client.hpp"
#include "net/tcp_node_host.hpp"

using namespace pocc;

int main() {
  net::ClusterLayout layout;
  layout.topology.num_dcs = 2;
  layout.topology.partitions_per_dc = 2;
  layout.system = SystemKind::kPocc;

  // One host per DC on an ephemeral port, then tell everyone where everyone
  // else ended up (a poccd deployment reads the same layout from a file).
  std::vector<std::unique_ptr<net::TcpNodeHost>> hosts;
  for (DcId dc = 0; dc < layout.topology.num_dcs; ++dc) {
    net::ProcessSpec spec;
    spec.dc = dc;
    spec.parts = {0, 1};
    spec.threads = 2;
    spec.host = "127.0.0.1";
    net::TcpNodeHost::Options opt;
    opt.seed = 1 + hosts.size();
    hosts.push_back(std::make_unique<net::TcpNodeHost>(spec, layout, opt));
    spec.port = hosts.back()->port();
    layout.processes.push_back(spec);
    for (PartitionId p = 0; p < layout.topology.partitions_per_dc; ++p) {
      layout.nodes.push_back(
          net::NodeAddress{NodeId{dc, p}, "127.0.0.1", spec.port});
    }
  }
  for (auto& host : hosts) host->start(layout.processes);

  net::TcpClientPool dc0(layout, 0);
  net::TcpClientPool dc1(layout, 1);
  dc0.start();
  dc1.start();
  dc0.wait_connected(5'000'000);
  dc1.wait_connected(5'000'000);

  net::TcpSession& alice = dc0.connect(1);
  net::TcpSession& bob = dc1.connect(2);

  const auto put = alice.put("user:alice", "photo.jpg");
  std::printf("alice PUT over TCP: ok=%d ut=%lld\n", put.ok,
              static_cast<long long>(put.ut));
  const auto own = alice.get("user:alice");
  std::printf("alice reads her write: '%s'\n", own.value.c_str());

  // Bob (other DC) polls until replication lands.
  for (int i = 0; i < 1'000; ++i) {
    const auto got = bob.get("user:alice");
    if (got.ok && got.found) {
      std::printf("bob sees it in DC1 after replication: '%s'\n",
                  got.value.c_str());
      break;
    }
  }

  dc0.stop();
  dc1.stop();
  for (auto& host : hosts) host->stop();
  std::printf("done\n");
  return 0;
}
