// The one vocabulary for "which protocol engine runs": the SystemKind enum,
// its display and flag spellings, the name parser every CLI and config file
// shares, and the factory both hosts (cluster::SimCluster, net::TcpNodeHost)
// build their engines with.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/config.hpp"
#include "common/types.hpp"
#include "server/context.hpp"
#include "server/replica_base.hpp"

namespace pocc {

/// Which protocol a deployment runs. kScalarPocc is the scalar-granularity
/// ablation of POCC's dependency tracking (see pocc/scalar_pocc_server.hpp).
enum class SystemKind { kPocc, kCure, kHaPocc, kScalarPocc };

/// Display name, as the paper spells it ("POCC", "Cure*", "HA-POCC",
/// "Scalar-OCC") — bench tables and logs.
[[nodiscard]] const char* system_name(SystemKind k);

/// Canonical flag/config spelling ("pocc", "cure", "ha_pocc",
/// "scalar_pocc"); parse_system() reads it back.
[[nodiscard]] const char* system_flag(SystemKind k);

/// Parse an engine name from a CLI flag, config file or fuzz replay line.
/// Accepts the canonical flags plus the aliases configs use for HA-POCC
/// ("ha", "ha-pocc", "hapocc"). nullopt on anything else.
[[nodiscard]] std::optional<SystemKind> parse_system(const std::string& name);

/// Build the engine of `kind` for node `id`, bound to its host context.
[[nodiscard]] std::unique_ptr<server::ReplicaBase> make_engine(
    SystemKind kind, NodeId id, const TopologyConfig& topology,
    const ProtocolConfig& protocol, const ServiceConfig& service,
    server::Context& ctx);

}  // namespace pocc
