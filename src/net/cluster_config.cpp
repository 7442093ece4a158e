#include "net/cluster_config.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

namespace pocc::net {

bool ProcessSpec::hosts(NodeId node) const {
  return node.dc == dc &&
         std::find(parts.begin(), parts.end(), node.part) != parts.end();
}

const NodeAddress* ClusterLayout::find(NodeId node) const {
  for (const NodeAddress& a : nodes) {
    if (a.node == node) return &a;
  }
  return nullptr;
}

const ProcessSpec* ClusterLayout::process_for(NodeId node) const {
  for (const ProcessSpec& p : processes) {
    if (p.hosts(node)) return &p;
  }
  return nullptr;
}

bool ClusterLayout::complete() const {
  if (nodes.size() != topology.total_nodes()) return false;
  for (DcId dc = 0; dc < topology.num_dcs; ++dc) {
    for (PartitionId p = 0; p < topology.partitions_per_dc; ++p) {
      if (find(NodeId{dc, p}) == nullptr) return false;
    }
  }
  return true;
}

namespace {

bool fail(std::string* error, int line_no, const std::string& msg) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + msg;
  }
  return false;
}

bool parse_host_port(const std::string& spec, std::string* host,
                     std::uint16_t* port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return false;
  }
  *host = spec.substr(0, colon);
  const std::string port_str = spec.substr(colon + 1);
  unsigned long value = 0;  // NOLINT(google-runtime-int)
  try {
    value = std::stoul(port_str);
  } catch (...) {
    return false;
  }
  if (value == 0 || value > 65'535) return false;
  *port = static_cast<std::uint16_t>(value);
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  // from_chars reports overflow (result_out_of_range), so absurdly large
  // values are rejected instead of silently wrapping mod 2^64.
  if (s.empty()) return false;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc{} && ptr == end;
}

/// "0-3" (range), "0,2,5" (list) or "4" (single) -> sorted partition ids.
bool parse_parts(const std::string& spec, std::vector<PartitionId>* out) {
  out->clear();
  const std::size_t dash = spec.find('-');
  if (dash != std::string::npos) {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    if (!parse_u64(spec.substr(0, dash), &lo) ||
        !parse_u64(spec.substr(dash + 1), &hi) || hi < lo || hi >= 4096) {
      return false;
    }
    for (std::uint64_t p = lo; p <= hi; ++p) {
      out->push_back(static_cast<PartitionId>(p));
    }
    return true;
  }
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t comma = spec.find(',', begin);
    const std::string tok =
        spec.substr(begin, comma == std::string::npos ? std::string::npos
                                                      : comma - begin);
    std::uint64_t p = 0;
    if (!parse_u64(tok, &p) || p >= 4096) return false;
    out->push_back(static_cast<PartitionId>(p));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  std::sort(out->begin(), out->end());
  return !out->empty() &&
         std::adjacent_find(out->begin(), out->end()) == out->end();
}

/// Group form: `node dc=0 parts=0-3 threads=4 addr=host:port`.
bool parse_group_node(std::istringstream& ls, const std::string& first_token,
                      ProcessSpec* spec, std::string* why) {
  bool saw_dc = false;
  bool saw_parts = false;
  bool saw_addr = false;
  std::string token = first_token;
  do {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      *why = "expected key=value, got '" + token + "'";
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    std::uint64_t v = 0;
    if (key == "dc") {
      if (!parse_u64(value, &v) || v >= kMaxDcs) {
        *why = "bad dc '" + value + "'";
        return false;
      }
      spec->dc = static_cast<DcId>(v);
      saw_dc = true;
    } else if (key == "parts") {
      if (!parse_parts(value, &spec->parts)) {
        *why = "bad parts '" + value + "' (want N, N-M or N,M,...)";
        return false;
      }
      saw_parts = true;
    } else if (key == "threads") {
      if (!parse_u64(value, &v) || v < 1 || v > 1024) {
        *why = "threads must be 1..1024";
        return false;
      }
      spec->threads = static_cast<std::uint32_t>(v);
    } else if (key == "addr") {
      if (!parse_host_port(value, &spec->host, &spec->port)) {
        *why = "bad address '" + value + "'";
        return false;
      }
      saw_addr = true;
    } else {
      *why = "unknown key '" + key + "'";
      return false;
    }
  } while (ls >> token);
  if (!saw_dc || !saw_parts || !saw_addr) {
    *why = "group node needs dc=, parts= and addr=";
    return false;
  }
  return true;
}

}  // namespace

std::optional<ClusterLayout> parse_cluster_config(std::istream& in,
                                                  std::string* error) {
  ClusterLayout layout;
  std::string line;
  int line_no = 0;
  bool saw_dcs = false;
  bool saw_partitions = false;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword)) continue;  // blank / comment-only line

    auto want_u64 = [&](std::uint64_t* out) {
      std::uint64_t v = 0;
      if (!(ls >> v)) return false;
      *out = v;
      return true;
    };

    std::uint64_t v = 0;
    if (keyword == "dcs") {
      if (!want_u64(&v) || v < 1 || v > kMaxDcs) {
        fail(error, line_no, "dcs must be 1.." + std::to_string(kMaxDcs));
        return std::nullopt;
      }
      layout.topology.num_dcs = static_cast<std::uint32_t>(v);
      saw_dcs = true;
    } else if (keyword == "partitions") {
      if (!want_u64(&v) || v < 1 || v > 4096) {
        fail(error, line_no, "partitions must be 1..4096");
        return std::nullopt;
      }
      layout.topology.partitions_per_dc = static_cast<std::uint32_t>(v);
      saw_partitions = true;
    } else if (keyword == "system") {
      std::string name;
      ls >> name;
      const auto system = parse_system(name);
      if (!system.has_value()) {
        fail(error, line_no, "unknown system '" + name + "'");
        return std::nullopt;
      }
      layout.system = *system;
    } else if (keyword == "scheme") {
      std::string name;
      ls >> name;
      if (name == "hash") {
        layout.topology.partition_scheme = PartitionScheme::kHash;
      } else if (name == "prefix") {
        layout.topology.partition_scheme = PartitionScheme::kPrefix;
      } else {
        fail(error, line_no, "scheme must be hash or prefix");
        return std::nullopt;
      }
    } else if (keyword == "heartbeat_us") {
      if (!want_u64(&v)) {
        fail(error, line_no, "bad value");
        return std::nullopt;
      }
      layout.protocol.heartbeat_interval_us = static_cast<Duration>(v);
    } else if (keyword == "stabilization_us") {
      if (!want_u64(&v)) {
        fail(error, line_no, "bad value");
        return std::nullopt;
      }
      layout.protocol.stabilization_interval_us = static_cast<Duration>(v);
    } else if (keyword == "gc_us") {
      if (!want_u64(&v)) {
        fail(error, line_no, "bad value");
        return std::nullopt;
      }
      layout.protocol.gc_interval_us = static_cast<Duration>(v);
    } else if (keyword == "block_timeout_us") {
      if (!want_u64(&v)) {
        fail(error, line_no, "bad value");
        return std::nullopt;
      }
      layout.protocol.block_timeout_us = static_cast<Duration>(v);
    } else if (keyword == "ha_stabilization_us") {
      if (!want_u64(&v)) {
        fail(error, line_no, "bad value");
        return std::nullopt;
      }
      layout.protocol.ha_stabilization_interval_us = static_cast<Duration>(v);
    } else if (keyword == "put_dependency_wait") {
      if (!want_u64(&v) || v > 1) {
        fail(error, line_no, "put_dependency_wait must be 0 or 1");
        return std::nullopt;
      }
      layout.protocol.put_dependency_wait = v == 1;
    } else if (keyword == "node") {
      std::string first;
      if (!(ls >> first)) {
        fail(error, line_no, "empty node line");
        return std::nullopt;
      }
      ProcessSpec spec;
      if (first.find('=') == std::string::npos) {
        fail(error, line_no,
             "expected: node dc=N parts=P|P-Q|P,Q,... addr=HOST:PORT "
             "[threads=T]");
        return std::nullopt;
      }
      std::string why;
      if (!parse_group_node(ls, first, &spec, &why)) {
        fail(error, line_no, why);
        return std::nullopt;
      }
      layout.processes.push_back(std::move(spec));
    } else {
      fail(error, line_no, "unknown keyword '" + keyword + "'");
      return std::nullopt;
    }
  }
  if (!saw_dcs || !saw_partitions) {
    if (error != nullptr) *error = "missing dcs/partitions declaration";
    return std::nullopt;
  }
  for (const ProcessSpec& p : layout.processes) {
    for (const PartitionId part : p.parts) {
      if (p.dc >= layout.topology.num_dcs ||
          part >= layout.topology.partitions_per_dc) {
        if (error != nullptr) {
          *error = "node " + NodeId{p.dc, part}.to_string() +
                   " outside the topology";
        }
        return std::nullopt;
      }
      layout.nodes.push_back(NodeAddress{NodeId{p.dc, part}, p.host, p.port});
    }
  }
  if (!layout.complete()) {
    if (error != nullptr) {
      *error = "every (dc, partition) pair needs exactly one hosting process";
    }
    return std::nullopt;
  }
  return layout;
}

std::optional<ClusterLayout> load_cluster_config(const std::string& path,
                                                 std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return parse_cluster_config(in, error);
}

std::string format_cluster_config(const ClusterLayout& layout) {
  std::ostringstream out;
  out << "dcs " << layout.topology.num_dcs << "\n";
  out << "partitions " << layout.topology.partitions_per_dc << "\n";
  out << "system " << system_flag(layout.system) << "\n";
  out << "scheme "
      << (layout.topology.partition_scheme == PartitionScheme::kHash
              ? "hash"
              : "prefix")
      << "\n";
  out << "heartbeat_us " << layout.protocol.heartbeat_interval_us << "\n";
  out << "stabilization_us " << layout.protocol.stabilization_interval_us
      << "\n";
  out << "gc_us " << layout.protocol.gc_interval_us << "\n";
  out << "block_timeout_us " << layout.protocol.block_timeout_us << "\n";
  out << "ha_stabilization_us "
      << layout.protocol.ha_stabilization_interval_us << "\n";
  out << "put_dependency_wait "
      << (layout.protocol.put_dependency_wait ? 1 : 0) << "\n";
  for (const ProcessSpec& p : layout.processes) {
    out << "node dc=" << p.dc << " parts=";
    // Contiguous runs render as a range, anything else as a list.
    bool contiguous = true;
    for (std::size_t i = 1; i < p.parts.size(); ++i) {
      if (p.parts[i] != p.parts[i - 1] + 1) {
        contiguous = false;
        break;
      }
    }
    if (contiguous && p.parts.size() > 1) {
      out << p.parts.front() << "-" << p.parts.back();
    } else {
      for (std::size_t i = 0; i < p.parts.size(); ++i) {
        if (i > 0) out << ",";
        out << p.parts[i];
      }
    }
    out << " threads=" << p.threads << " addr=" << p.host << ":" << p.port
        << "\n";
  }
  return out.str();
}

}  // namespace pocc::net
