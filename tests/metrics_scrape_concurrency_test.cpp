// Live /metrics + /readyz scraping under load, across real sockets: a 2-DC
// TcpNodeHost deployment with the embedded HTTP endpoint enabled, a client
// session driving GET/PUT traffic, and a scrape thread tight-looping HTTP
// requests the whole time. The point is the CONCURRENCY contract of the
// stats registry — every registered callback must be safe to call from the
// scrape thread while the engines, transport loops and WAL run full tilt —
// so this test carries the `concurrency` ctest label and is the TSan proof
// of the sharded-registry design.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp_client.hpp"
#include "net/tcp_node_host.hpp"
#include "runtime/rt_node.hpp"

namespace pocc::net {
namespace {

/// Minimal blocking HTTP/1.0 GET against the embedded metrics server.
/// Returns the full response (status line + headers + body), empty on any
/// socket error.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return {};
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

bool is_200(const std::string& resp) {
  return resp.rfind("HTTP/1.0 200", 0) == 0;
}

std::string body_of(const std::string& resp) {
  const auto pos = resp.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : resp.substr(pos + 4);
}

/// Two DCs x two partitions on two workers each, every host with the
/// embedded observability endpoint on an ephemeral port — the poccd
/// topology, minus the process boundary.
class MetricsDeployment {
 public:
  MetricsDeployment() {
    layout_.topology.num_dcs = 2;
    layout_.topology.partitions_per_dc = 2;
    layout_.topology.partition_scheme = PartitionScheme::kHash;
    layout_.system = SystemKind::kPocc;
    layout_.protocol.heartbeat_interval_us = 5'000;
    layout_.protocol.stabilization_interval_us = 20'000;
    std::uint64_t seed = 1;
    for (DcId dc = 0; dc < layout_.topology.num_dcs; ++dc) {
      ProcessSpec spec;
      spec.dc = dc;
      for (PartitionId p = 0; p < layout_.topology.partitions_per_dc; ++p) {
        spec.parts.push_back(p);
      }
      spec.threads = 2;
      spec.host = "127.0.0.1";
      TcpNodeHost::Options opt;
      opt.listen_port = 0;
      opt.seed = seed++;
      opt.metrics_addr = "127.0.0.1:0";  // ephemeral scrape endpoint
      hosts_.push_back(std::make_unique<TcpNodeHost>(spec, layout_, opt));
      spec.port = hosts_.back()->port();
      layout_.processes.push_back(spec);
      for (PartitionId p = 0; p < layout_.topology.partitions_per_dc; ++p) {
        layout_.nodes.push_back(
            NodeAddress{NodeId{dc, p}, "127.0.0.1", spec.port});
      }
    }
    for (auto& host : hosts_) host->start(layout_.processes);
    pool_ = std::make_unique<TcpClientPool>(layout_, 0);
    pool_->start();
    EXPECT_TRUE(pool_->wait_connected(10'000'000));
    // The hosts' own links dial concurrently with the pool; wait until every
    // host reports ready, as the launch scripts wait on /readyz.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (auto& host : hosts_) {
      while (!host->ready() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_TRUE(host->ready()) << "host never became ready";
    }
  }

  ~MetricsDeployment() {
    pool_->stop();
    for (auto& host : hosts_) host->stop();
  }

  TcpNodeHost& host(DcId dc) { return *hosts_[dc]; }
  TcpSession& connect(ClientId id) { return pool_->connect(id); }

 private:
  ClusterLayout layout_;
  std::vector<std::unique_ptr<TcpNodeHost>> hosts_;
  std::unique_ptr<TcpClientPool> pool_;
};

TEST(MetricsScrapeConcurrency, EndpointsAnswerWhenIdle) {
  MetricsDeployment cluster;
  const std::uint16_t port = cluster.host(0).metrics_port();
  ASSERT_NE(port, 0) << "metrics server failed to bind";

  const std::string health = http_get(port, "/healthz");
  EXPECT_TRUE(is_200(health)) << health;
  EXPECT_EQ(body_of(health), "ok\n");

  // All links are up and there is no recovery — ready.
  const std::string ready = http_get(port, "/readyz");
  EXPECT_TRUE(is_200(ready)) << ready;

  const std::string metrics = http_get(port, "/metrics");
  ASSERT_TRUE(is_200(metrics)) << metrics;
  const std::string body = body_of(metrics);
  EXPECT_NE(body.find("# TYPE pocc_transport_frames_in_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("pocc_host_ready 1"), std::string::npos);
  EXPECT_NE(body.find("pocc_server_op_us_bucket{op=\"get\",le=\"50\"}"),
            std::string::npos);

  EXPECT_EQ(http_get(port, "/nope").rfind("HTTP/1.0 404", 0), 0u);
}

TEST(MetricsScrapeConcurrency, TightScrapeLoopUnderLoad) {
  MetricsDeployment cluster;
  const std::uint16_t port = cluster.host(0).metrics_port();
  ASSERT_NE(port, 0);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::atomic<std::uint64_t> scrape_failures{0};
  // Scrape thread: hammer /metrics and /readyz for the whole load. Every
  // registered callback runs on this thread while the engines serve — the
  // race, if any, is here.
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::string metrics = http_get(port, "/metrics");
      if (!is_200(metrics) ||
          body_of(metrics).find("pocc_engine_puts_total") ==
              std::string::npos) {
        ++scrape_failures;
      }
      if (!is_200(http_get(port, "/readyz"))) ++scrape_failures;
      ++scrapes;
    }
  });

  TcpSession& session = cluster.connect(9001);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "scrape:" + std::to_string(i % 17);
    ASSERT_TRUE(session.put(key, "v" + std::to_string(i)).ok);
    const auto got = session.get(key);
    ASSERT_TRUE(got.ok);
    ASSERT_TRUE(got.found);
  }
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_GT(scrapes.load(), 0u);
  EXPECT_EQ(scrape_failures.load(), 0u);

  // The final snapshot must show the load: server-side op histograms and
  // engine counters advanced while being scraped.
  const std::string body = body_of(http_get(port, "/metrics"));
  const auto count_pos = body.find("pocc_server_op_us_count{op=\"put\"}");
  ASSERT_NE(count_pos, std::string::npos);
  EXPECT_EQ(body.find("pocc_server_op_us_count{op=\"put\"} 0\n", count_pos),
            std::string::npos)
      << "put latency histogram never recorded";
  EXPECT_EQ(body.find("pocc_host_client_requests_total 0\n"),
            std::string::npos);
}

}  // namespace
}  // namespace pocc::net
