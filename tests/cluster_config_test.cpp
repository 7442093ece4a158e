// Cluster config parser: round trip, validation errors, defaults.
#include "net/cluster_config.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace pocc::net {
namespace {

const char* kGoodConfig = R"(# a 2x2 deployment
dcs 2
partitions 2
system cure
heartbeat_us 2500
node dc=0 parts=0 addr=127.0.0.1:7000
node dc=0 parts=1 addr=127.0.0.1:7001
node dc=1 parts=0 addr=localhost:7002   # hostnames are fine too
node dc=1 parts=1 addr=127.0.0.1:7003
)";

TEST(ClusterConfig, ParsesAValidFile) {
  std::istringstream in(kGoodConfig);
  std::string error;
  const auto layout = parse_cluster_config(in, &error);
  ASSERT_TRUE(layout.has_value()) << error;
  EXPECT_EQ(layout->topology.num_dcs, 2u);
  EXPECT_EQ(layout->topology.partitions_per_dc, 2u);
  EXPECT_EQ(layout->system, SystemKind::kCure);
  EXPECT_EQ(layout->protocol.heartbeat_interval_us, 2'500);
  ASSERT_TRUE(layout->complete());
  const NodeAddress* addr = layout->find(NodeId{1, 0});
  ASSERT_NE(addr, nullptr);
  EXPECT_EQ(addr->host, "localhost");
  EXPECT_EQ(addr->port, 7002);
}

TEST(ClusterConfig, FormatRoundTrips) {
  std::istringstream in(kGoodConfig);
  std::string error;
  const auto layout = parse_cluster_config(in, &error);
  ASSERT_TRUE(layout.has_value()) << error;
  std::istringstream again(format_cluster_config(*layout));
  const auto reparsed = parse_cluster_config(again, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->topology.num_dcs, layout->topology.num_dcs);
  EXPECT_EQ(reparsed->system, layout->system);
  EXPECT_EQ(reparsed->nodes.size(), layout->nodes.size());
  for (std::size_t i = 0; i < layout->nodes.size(); ++i) {
    EXPECT_EQ(reparsed->nodes[i].node, layout->nodes[i].node);
    EXPECT_EQ(reparsed->nodes[i].host, layout->nodes[i].host);
    EXPECT_EQ(reparsed->nodes[i].port, layout->nodes[i].port);
  }
}

TEST(ClusterConfig, RejectsMissingNodes) {
  std::istringstream in("dcs 2\npartitions 2\nnode dc=0 parts=0 addr=h:1\n");
  std::string error;
  EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ClusterConfig, RejectsNodeOutsideTopology) {
  std::istringstream in(
      "dcs 1\npartitions 1\nnode dc=0 parts=0 addr=h:1\n"
      "node dc=5 parts=0 addr=h:2\n");
  std::string error;
  EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
  EXPECT_NE(error.find("outside"), std::string::npos);
}

TEST(ClusterConfig, RejectsBadKeywordAndBadAddress) {
  {
    std::istringstream in(
        "dcs 1\npartitions 1\nbogus 3\nnode dc=0 parts=0 addr=h:1\n");
    std::string error;
    EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
    EXPECT_NE(error.find("unknown keyword"), std::string::npos);
  }
  {
    std::istringstream in(
        "dcs 1\npartitions 1\nnode dc=0 parts=0 addr=noport\n");
    std::string error;
    EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
    EXPECT_NE(error.find("bad address"), std::string::npos);
  }
  {
    std::istringstream in("dcs 1\npartitions 1\nsystem eventual\n");
    std::string error;
    EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
    EXPECT_NE(error.find("unknown system"), std::string::npos);
  }
}

const char* kGroupConfig = R"(# a 3-process deployment, one per DC
dcs 3
partitions 4
system pocc
node dc=0 parts=0-3 threads=4 addr=127.0.0.1:7450
node dc=1 parts=0,1,2,3 threads=2 addr=127.0.0.1:7451
node dc=2 parts=0-3 addr=host2:7452   # threads defaults to 1
)";

TEST(ClusterConfig, ParsesGroupNodes) {
  std::istringstream in(kGroupConfig);
  std::string error;
  const auto layout = parse_cluster_config(in, &error);
  ASSERT_TRUE(layout.has_value()) << error;
  ASSERT_EQ(layout->processes.size(), 3u);
  EXPECT_TRUE(layout->complete());
  EXPECT_EQ(layout->nodes.size(), 12u);

  const ProcessSpec& p0 = layout->processes[0];
  EXPECT_EQ(p0.dc, 0u);
  EXPECT_EQ(p0.parts, (std::vector<PartitionId>{0, 1, 2, 3}));
  EXPECT_EQ(p0.threads, 4u);
  EXPECT_EQ(p0.port, 7450);
  EXPECT_EQ(layout->processes[1].threads, 2u);
  EXPECT_EQ(layout->processes[2].threads, 1u);
  EXPECT_EQ(layout->processes[2].host, "host2");

  // Per-node addresses derive from the hosting process.
  const NodeAddress* addr = layout->find(NodeId{1, 3});
  ASSERT_NE(addr, nullptr);
  EXPECT_EQ(addr->port, 7451);
  const ProcessSpec* owner = layout->process_for(NodeId{2, 1});
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->port, 7452);
}

TEST(ClusterConfig, GroupFormatRoundTrips) {
  std::istringstream in(kGroupConfig);
  std::string error;
  const auto layout = parse_cluster_config(in, &error);
  ASSERT_TRUE(layout.has_value()) << error;
  std::istringstream again(format_cluster_config(*layout));
  const auto reparsed = parse_cluster_config(again, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  ASSERT_EQ(reparsed->processes.size(), layout->processes.size());
  for (std::size_t i = 0; i < layout->processes.size(); ++i) {
    EXPECT_EQ(reparsed->processes[i].dc, layout->processes[i].dc);
    EXPECT_EQ(reparsed->processes[i].parts, layout->processes[i].parts);
    EXPECT_EQ(reparsed->processes[i].threads, layout->processes[i].threads);
    EXPECT_EQ(reparsed->processes[i].host, layout->processes[i].host);
    EXPECT_EQ(reparsed->processes[i].port, layout->processes[i].port);
  }
}

TEST(ClusterConfig, RejectsBadGroupNodes) {
  {  // partition hosted twice
    std::istringstream in(
        "dcs 1\npartitions 2\n"
        "node dc=0 parts=0-1 addr=h:1\nnode dc=0 parts=1 addr=h:2\n");
    std::string error;
    EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
  }
  {  // inverted range
    std::istringstream in(
        "dcs 1\npartitions 4\nnode dc=0 parts=3-1 addr=h:1\n");
    std::string error;
    EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
    EXPECT_NE(error.find("bad parts"), std::string::npos);
  }
  {  // missing addr
    std::istringstream in("dcs 1\npartitions 1\nnode dc=0 parts=0\n");
    std::string error;
    EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
    EXPECT_NE(error.find("addr"), std::string::npos);
  }
  {  // unknown key
    std::istringstream in(
        "dcs 1\npartitions 1\nnode dc=0 parts=0 cores=2 addr=h:1\n");
    std::string error;
    EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
    EXPECT_NE(error.find("unknown key"), std::string::npos);
  }
  {  // group node outside topology
    std::istringstream in(
        "dcs 1\npartitions 2\nnode dc=0 parts=0-2 addr=h:1\n");
    std::string error;
    EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
    EXPECT_NE(error.find("outside"), std::string::npos);
  }
}

TEST(ClusterConfig, RejectsOutOfRangePartsRange) {
  // Range values beyond the 4096 partition cap must be rejected, not
  // silently truncated through the u32 cast (a typo'd huge number would
  // otherwise remap to small partition ids and parse "successfully").
  std::istringstream in(
      "dcs 1\npartitions 2\nnode dc=0 parts=4294967296-4294967297 "
      "addr=h:1\n");
  std::string error;
  EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
  EXPECT_NE(error.find("bad parts"), std::string::npos);
}

TEST(ClusterConfig, RejectsU64OverflowValues) {
  // Values past 2^64 must fail parsing (from_chars overflow), not wrap —
  // `parts=2^64..2^64+1` would otherwise alias parts 0-1 and "succeed".
  {
    std::istringstream in(
        "dcs 1\npartitions 2\n"
        "node dc=0 parts=18446744073709551616-18446744073709551617 "
        "addr=h:1\n");
    std::string error;
    EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
    EXPECT_NE(error.find("bad parts"), std::string::npos);
  }
  {
    std::istringstream in(
        "dcs 1\npartitions 1\n"
        "node dc=18446744073709551617 parts=0 addr=h:1\n");
    std::string error;
    EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
    EXPECT_NE(error.find("bad dc"), std::string::npos);
  }
  {
    std::istringstream in(
        "dcs 1\npartitions 1\n"
        "node dc=0 parts=0 threads=18446744073709551617 addr=h:1\n");
    std::string error;
    EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
    EXPECT_NE(error.find("threads"), std::string::npos);
  }
}

TEST(ClusterConfig, RejectsPositionalNodeLines) {
  // A positional `node DC PART HOST:PORT` line is rejected, and the error
  // names the key=value form to write instead.
  std::istringstream in("dcs 1\npartitions 1\nnode 0 0 127.0.0.1:7000\n");
  std::string error;
  EXPECT_FALSE(parse_cluster_config(in, &error).has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("node dc="), std::string::npos) << error;
  EXPECT_NE(error.find("parts="), std::string::npos) << error;
  EXPECT_NE(error.find("addr="), std::string::npos) << error;
}

TEST(ClusterConfig, SystemNamesRoundTrip) {
  for (const auto system : {SystemKind::kPocc, SystemKind::kCure,
                            SystemKind::kHaPocc, SystemKind::kScalarPocc}) {
    const auto parsed = parse_system(system_flag(system));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, system);
  }
  // Every spelling configs, E2E_SYSTEM values and fuzz replay lines use.
  EXPECT_EQ(parse_system("ha"), SystemKind::kHaPocc);
  EXPECT_EQ(parse_system("ha-pocc"), SystemKind::kHaPocc);
  EXPECT_EQ(parse_system("hapocc"), SystemKind::kHaPocc);
  EXPECT_EQ(parse_system("ha_pocc"), SystemKind::kHaPocc);
  EXPECT_EQ(parse_system("scalar_pocc"), SystemKind::kScalarPocc);
  EXPECT_FALSE(parse_system("HA-POCC").has_value());
  EXPECT_FALSE(parse_system("").has_value());
}

}  // namespace
}  // namespace pocc::net
