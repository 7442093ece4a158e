#include "server/engine_factory.hpp"

#include "common/assert.hpp"
#include "cure/cure_server.hpp"
#include "ha/ha_pocc_server.hpp"
#include "pocc/pocc_server.hpp"
#include "pocc/scalar_pocc_server.hpp"

namespace pocc {

const char* system_name(SystemKind k) {
  switch (k) {
    case SystemKind::kPocc:
      return "POCC";
    case SystemKind::kCure:
      return "Cure*";
    case SystemKind::kHaPocc:
      return "HA-POCC";
    case SystemKind::kScalarPocc:
      return "Scalar-OCC";
  }
  return "?";
}

const char* system_flag(SystemKind k) {
  switch (k) {
    case SystemKind::kPocc:
      return "pocc";
    case SystemKind::kCure:
      return "cure";
    case SystemKind::kHaPocc:
      return "ha_pocc";
    case SystemKind::kScalarPocc:
      return "scalar_pocc";
  }
  return "?";
}

std::optional<SystemKind> parse_system(const std::string& name) {
  if (name == "pocc") return SystemKind::kPocc;
  if (name == "cure") return SystemKind::kCure;
  if (name == "ha_pocc" || name == "ha" || name == "ha-pocc" ||
      name == "hapocc") {
    return SystemKind::kHaPocc;
  }
  if (name == "scalar_pocc") return SystemKind::kScalarPocc;
  return std::nullopt;
}

std::unique_ptr<server::ReplicaBase> make_engine(
    SystemKind kind, NodeId id, const TopologyConfig& topology,
    const ProtocolConfig& protocol, const ServiceConfig& service,
    server::Context& ctx) {
  switch (kind) {
    case SystemKind::kPocc:
      return std::make_unique<PoccServer>(id, topology, protocol, service,
                                          ctx);
    case SystemKind::kCure:
      return std::make_unique<CureServer>(id, topology, protocol, service,
                                          ctx);
    case SystemKind::kHaPocc:
      return std::make_unique<HaPoccServer>(id, topology, protocol, service,
                                            ctx);
    case SystemKind::kScalarPocc:
      return std::make_unique<ScalarPoccServer>(id, topology, protocol,
                                                service, ctx);
  }
  POCC_ASSERT_MSG(false, "unknown system");
  return nullptr;
}

}  // namespace pocc
