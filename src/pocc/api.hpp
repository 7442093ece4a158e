// Umbrella header — the public API of the POCC library.
//
//   #include "pocc/api.hpp"
//
// Three ways to use the library, from highest to lowest level:
//
//  1. Deployments (two hosts for the same engines).
//     * pocc::cluster::SimCluster — a deterministic simulated geo-replicated
//       deployment (DES-backed); what the benchmarks and most tests use.
//     * pocc::net::TcpNodeHost + pocc::net::TcpClientPool — the production
//       host: one process per data center over real TCP (what `poccd` and
//       `pocc_loadgen` are built from), with blocking and pipelined
//       client sessions.
//
//  2. Protocol engines, for embedding in your own host: pocc::PoccServer,
//     pocc::CureServer, pocc::HaPoccServer, pocc::ScalarPoccServer (or
//     pocc::make_engine by SystemKind) and pocc::client::ClientEngine.
//     Implement pocc::server::Context (clock, send, reply, timers) and feed
//     messages to ReplicaBase::handle_message.
//
//  3. Building blocks: version vectors, the multi-version store, the
//     discrete-event simulator, workload generators, metrics and the
//     causal-consistency checker.
#pragma once

#include "client/client_engine.hpp"
#include "cluster/sim_cluster.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "cure/cure_server.hpp"
#include "ha/ha_pocc_server.hpp"
#include "pocc/pocc_server.hpp"
#include "net/tcp_client.hpp"
#include "net/tcp_node_host.hpp"
#include "pocc/scalar_pocc_server.hpp"
#include "server/engine_factory.hpp"
#include "store/key_space.hpp"
#include "workload/workload.hpp"
