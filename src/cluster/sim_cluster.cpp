#include "cluster/sim_cluster.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "ha/ha_pocc_server.hpp"
#include "store/key_space.hpp"

namespace pocc::cluster {
namespace {

/// The window's growth of counter `name`: its value at the end minus at the
/// start, summed over every label set and data center (run.py's delta()).
double delta(const std::vector<stats::Snapshot>& begin,
             const std::vector<stats::Snapshot>& end,
             const std::string& name) {
  double d = 0.0;
  for (std::size_t dc = 0; dc < end.size(); ++dc) {
    d += end[dc].value(name) - begin[dc].value(name);
  }
  return d;
}

/// The same for histogram `name`, subtracted bucket by bucket per series.
stats::Histogram delta_histogram(const std::vector<stats::Snapshot>& begin,
                                 const std::vector<stats::Snapshot>& end,
                                 const std::string& name) {
  stats::Histogram d;
  for (std::size_t dc = 0; dc < end.size(); ++dc) {
    for (const stats::Snapshot::Sample& s : end[dc].samples) {
      if (s.name != name) continue;
      stats::Histogram h = *s.hist;
      h.subtract(begin[dc].histogram(name, s.labels));
      d.merge(h);
    }
  }
  return d;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

SimCluster::SimCluster(SimClusterConfig cfg)
    : cfg_(std::move(cfg)), root_rng_(cfg_.seed) {
  net_ = std::make_unique<net::SimNetwork>(sim_, cfg_.latency,
                                           root_rng_.split());
  if (cfg_.enable_checker) {
    checker_ =
        std::make_unique<checker::HistoryChecker>(cfg_.topology.num_dcs);
  }

  const auto& topo = cfg_.topology;
  for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
    registries_.push_back(std::make_unique<stats::Registry>());
  }
  window_begin_.resize(topo.num_dcs);
  nodes_.reserve(topo.total_nodes());
  // WAN-level NTP error: one clock bias per data center; node clocks add a
  // smaller LAN-level offset on top (see ClockConfig).
  std::vector<Timestamp> dc_bias(topo.num_dcs, 0);
  for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
    dc_bias[dc] = static_cast<Timestamp>(
        root_rng_.normal(0.0, cfg_.clock.dc_offset_sigma_us));
  }
  for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
    for (PartitionId p = 0; p < topo.partitions_per_dc; ++p) {
      const NodeId id{dc, p};
      ClockConfig node_clock = cfg_.clock;
      node_clock.offset_bias_us += dc_bias[dc];
      // The factory also rebuilds the engine after a crash, so the
      // recovered incarnation gets its checker observer re-wired exactly
      // like the original.
      nodes_.push_back(std::make_unique<SimNode>(
          id, cfg_.service, node_clock, sim_, *net_, *registries_[dc],
          root_rng_,
          [this](NodeId nid, server::Context& ctx) {
            return make_engine(nid, ctx);
          }));
    }
  }
  // Start nodes with a per-node phase so periodic timers do not fire in
  // lockstep across the whole deployment.
  for (auto& node : nodes_) {
    const Duration phase = static_cast<Duration>(root_rng_.uniform(
        static_cast<std::uint64_t>(cfg_.protocol.heartbeat_interval_us) + 1));
    sim_.schedule(phase, [n = node.get()] { n->start(); });
  }
}

SimCluster::~SimCluster() = default;

std::unique_ptr<server::ReplicaBase> SimCluster::make_engine(
    NodeId id, server::Context& ctx) {
  auto engine = pocc::make_engine(cfg_.system, id, cfg_.topology,
                                  cfg_.protocol, cfg_.service, ctx);
  if (checker_ != nullptr) {
    engine->set_version_observer(
        [chk = checker_.get()](ClientId c, std::uint64_t op_id,
                               const store::Version& v) {
          chk->on_version_created(c, op_id, v.key, v.ut, v.sr, v.dv);
        });
  }
  return engine;
}

SimNode& SimCluster::node_at(NodeId id) {
  const std::size_t idx = id.flat_index(cfg_.topology.partitions_per_dc);
  POCC_ASSERT(idx < nodes_.size());
  return *nodes_[idx];
}

server::ReplicaBase& SimCluster::engine(NodeId id) {
  return node_at(id).engine();
}

NodeId SimCluster::node_for_key(DcId dc, KeyId key) const {
  return NodeId{dc, store::KeySpace::global().partition(
                        key, cfg_.topology.partitions_per_dc,
                        cfg_.topology.partition_scheme)};
}

void SimCluster::add_workload_clients(std::uint32_t per_partition,
                                      const workload::WorkloadConfig& wl) {
  const bool snapshot_rdv = cfg_.system == SystemKind::kCure;
  const auto& topo = cfg_.topology;
  for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
    for (PartitionId p = 0; p < topo.partitions_per_dc; ++p) {
      for (std::uint32_t i = 0; i < per_partition; ++i) {
        const ClientId id = next_client_id_++;
        const NodeId home{dc, p};
        auto c = std::make_unique<SimClient>(id, dc, home,
                                             SimClient::Mode::kWorkload, *this,
                                             root_rng_.split(), snapshot_rdv);
        net_->register_client(id, dc, home, c.get());
        if (checker_ != nullptr) {
          checker_->register_client(id, dc, snapshot_rdv);
        }
        c->start_workload(wl);
        clients_.push_back(std::move(c));
      }
    }
  }
}

SimClient& SimCluster::create_manual_client(DcId dc, PartitionId home) {
  POCC_ASSERT(dc < cfg_.topology.num_dcs);
  POCC_ASSERT(home < cfg_.topology.partitions_per_dc);
  const bool snapshot_rdv = cfg_.system == SystemKind::kCure;
  const ClientId id = next_client_id_++;
  auto c = std::make_unique<SimClient>(id, dc, NodeId{dc, home},
                                       SimClient::Mode::kManual, *this,
                                       root_rng_.split(), snapshot_rdv);
  net_->register_client(id, dc, NodeId{dc, home}, c.get());
  if (checker_ != nullptr) checker_->register_client(id, dc, snapshot_rdv);
  clients_.push_back(std::move(c));
  return *clients_.back();
}

void SimCluster::stop_clients() {
  for (auto& c : clients_) c->stop();
}

void SimCluster::run_for(Duration d) {
  POCC_ASSERT(d >= 0);
  sim_.run_until(sim_.now() + d);
}

bool SimCluster::pump_until(const std::function<bool()>& pred,
                            Duration max_wait) {
  const Timestamp deadline = sim_.now() + max_wait;
  while (!pred() && sim_.now() <= deadline) {
    if (!sim_.step()) break;
  }
  return pred();
}

void SimCluster::begin_measurement() {
  for (auto& node : nodes_) node->cpu().reset_stats();
  for (auto& c : clients_) c->reset_stats();
  net_->reset_stats();
  for (std::size_t dc = 0; dc < registries_.size(); ++dc) {
    window_begin_[dc] = registries_[dc]->snapshot();
  }
  measuring_ = true;
  window_start_ = sim_.now();
}

ClusterMetrics SimCluster::end_measurement() {
  measuring_ = false;
  ClusterMetrics m;
  m.window_us = sim_.now() - window_start_;
  for (const auto& c : clients_) {
    m.get_latency_us.merge(c->get_latency_us());
    m.put_latency_us.merge(c->put_latency_us());
    m.tx_latency_us.merge(c->tx_latency_us());
    m.completed_ops += c->completed_ops();
    m.session_fallbacks += c->session_fallbacks();
  }
  if (m.window_us > 0) {
    m.throughput_ops_per_sec = static_cast<double>(m.completed_ops) /
                               (static_cast<double>(m.window_us) * 1e-6);
  }
  const auto n = [](const stats::Histogram& h) {
    return static_cast<double>(h.count());
  };
  m.avg_latency_us = ratio(m.get_latency_us.mean() * n(m.get_latency_us) +
                               m.put_latency_us.mean() * n(m.put_latency_us) +
                               m.tx_latency_us.mean() * n(m.tx_latency_us),
                           n(m.get_latency_us) + n(m.put_latency_us) +
                               n(m.tx_latency_us));

  std::vector<stats::Snapshot> end;
  for (const auto& r : registries_) end.push_back(r->snapshot());
  const auto grew = [&](const std::string& name) {
    return delta(window_begin_, end, name);
  };
  const double ops = grew("pocc_engine_blocking_ops_total");
  m.blocking_ops = static_cast<std::uint64_t>(ops);
  m.blocking_probability = ratio(grew("pocc_engine_blocked_total"), ops);
  m.macro_blocking_probability =
      ratio(grew("pocc_engine_blocked_macro_total"), ops);
  m.blocked_us = delta_histogram(window_begin_, end, "pocc_engine_blocked_us");
  const double reads = grew("pocc_engine_reads_total");
  const double old_reads = grew("pocc_engine_old_reads_total");
  const double unmerged_reads = grew("pocc_engine_unmerged_reads_total");
  m.pct_old = ratio(100.0 * old_reads, reads);
  m.pct_unmerged = ratio(100.0 * unmerged_reads, reads);
  m.avg_fresher_versions =
      ratio(grew("pocc_engine_fresher_versions_total"), old_reads);
  m.avg_unmerged_versions =
      ratio(grew("pocc_engine_unmerged_versions_total"), unmerged_reads);

  double util_sum = 0.0;
  for (const auto& node : nodes_) {
    util_sum += node->cpu().utilization(window_start_, sim_.now());
  }
  m.avg_cpu_utilization = util_sum / static_cast<double>(nodes_.size());
  m.network = net_->stats();
  return m;
}

void SimCluster::partition_dcs(DcId a, DcId b) { net_->partition_dcs(a, b); }
void SimCluster::heal_dcs(DcId a, DcId b) { net_->heal_dcs(a, b); }
void SimCluster::isolate_dc(DcId dc) {
  net_->isolate_dc(dc, cfg_.topology.num_dcs);
}
void SimCluster::heal_dc(DcId dc) {
  net_->heal_dc(dc, cfg_.topology.num_dcs);
}
bool SimCluster::has_active_partitions() const {
  return net_->any_partitions();
}

void SimCluster::crash_node(NodeId id) { node_at(id).crash(); }

std::uint64_t SimCluster::restart_node(NodeId id) {
  return node_at(id).restart();
}

bool SimCluster::node_down(NodeId id) { return node_at(id).down(); }

PhysicalClock& SimCluster::clock_at(NodeId id) { return node_at(id).clock(); }

std::uint64_t SimCluster::state_digest() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t x) { h = splitmix64(h ^ x); };
  auto mix_str = [&](const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<std::uint8_t>(c));
  };
  mix(sim_.executed_events());
  std::vector<stats::Snapshot> snaps;
  for (const auto& r : registries_) snaps.push_back(r->snapshot());
  for (const auto& node : nodes_) {
    const server::ReplicaBase& e = node->engine();
    const VersionVector& vv = e.version_vector();
    for (std::uint32_t i = 0; i < vv.size(); ++i) {
      mix(static_cast<std::uint64_t>(vv[i]));
    }
    const stats::Snapshot& dc = snaps[node->id().dc];
    const stats::Labels part = {{"part", std::to_string(node->id().part)}};
    mix(static_cast<std::uint64_t>(dc.value("pocc_engine_puts_total", part)));
    mix(static_cast<std::uint64_t>(dc.value("pocc_engine_gets_total", part)));
    // chains() is densely packed in insertion order — deterministic for a
    // given seed (the only ordering this digest is used under).
    for (const auto& [key, chain] : e.partition_store().chains()) {
      mix_str(store::key_name(key));
      for (const store::Version& v : chain.versions()) {
        mix(static_cast<std::uint64_t>(v.ut));
        mix(v.sr);
        mix_str(v.value);
        for (std::uint32_t i = 0; i < v.dv.size(); ++i) {
          mix(static_cast<std::uint64_t>(v.dv[i]));
        }
      }
    }
  }
  for (const auto& c : clients_) mix(c->completed_ops());
  const net::NetworkStats& ns = net_->stats();
  mix(ns.messages);
  mix(ns.bytes);
  mix(ns.dropped_messages);
  if (checker_ != nullptr) {
    mix(checker_->checks_performed());
    mix(checker_->versions_registered());
    mix(checker_->violations().size());
  }
  return h;
}

std::uint64_t SimCluster::declare_dc_lost(DcId dc) {
  POCC_ASSERT_MSG(cfg_.system == SystemKind::kHaPocc,
                  "lost-update recovery is an HA-POCC mechanism");
  std::uint64_t discarded = 0;
  for (auto& node : nodes_) {
    if (node->id().dc == dc) continue;
    auto* ha = dynamic_cast<HaPoccServer*>(&node->engine());
    POCC_ASSERT(ha != nullptr);
    discarded += ha->discard_lost_updates(dc);
  }
  return discarded;
}

std::vector<std::string> SimCluster::divergent_keys() const {
  std::vector<std::string> divergent;
  const auto& topo = cfg_.topology;
  for (PartitionId p = 0; p < topo.partitions_per_dc; ++p) {
    // Union of keys over the partition's replicas.
    std::unordered_map<KeyId, bool> keys;
    for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
      const auto& store =
          nodes_[NodeId{dc, p}.flat_index(topo.partitions_per_dc)]
              ->engine()
              .partition_store();
      for (const auto& [key, chain] : store.chains()) keys[key] = true;
    }
    for (const auto& [key, unused] : keys) {
      const store::Version* first = nullptr;
      bool diverged = false;
      for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
        const auto& store =
            nodes_[NodeId{dc, p}.flat_index(topo.partitions_per_dc)]
                ->engine()
                .partition_store();
        const store::VersionChain* chain = store.find(key);
        const store::Version* head =
            chain != nullptr ? chain->freshest() : nullptr;
        if (dc == 0) {
          first = head;
          continue;
        }
        const bool both_null = (first == nullptr && head == nullptr);
        if (both_null) continue;
        if (first == nullptr || head == nullptr || first->ut != head->ut ||
            first->sr != head->sr || first->value != head->value) {
          diverged = true;
        }
      }
      if (diverged) divergent.push_back(store::key_name(key));
    }
  }
  return divergent;
}

std::size_t SimCluster::total_parked_requests() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) n += node->engine().parked_requests();
  return n;
}

}  // namespace pocc::cluster
