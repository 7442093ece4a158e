// Cluster-fuzz smoke campaign (ctest label: fuzz).
//
// Runs seed-deterministic FaultPlans — partitions (symmetric and
// one-directional), gray slowdowns, fail-stop crashes with rebuild,
// heartbeat suppression, clock skew ramps — against all four engines under
// mixed Zipf workloads and asserts the fuzz pass criteria: zero
// HistoryChecker violations, post-fault convergence, no leaked parked
// requests, non-vacuous runs, and bit-identical same-seed replays. The
// nightly CI campaign (bench/fuzz_campaign) runs the same harness with many
// more rotating-seed plans; this suite keeps a representative slice in the
// regular test run. On failure the repro line replays the identical run:
//   fuzz_campaign --engine <e> --seed <s> --plan-hash <h>
#include <gtest/gtest.h>

#include "fault/fuzz_runner.hpp"

namespace pocc::fault {
namespace {

class ClusterFuzzTest
    : public ::testing::TestWithParam<std::pair<SystemKind,
                                                std::uint64_t>> {};

TEST_P(ClusterFuzzTest, SeededFaultPlanRunsClean) {
  FuzzCase c;
  c.system = GetParam().first;
  c.seed = GetParam().second;
  const FuzzOutcome o = run_fuzz_case(c);
  for (const std::string& f : o.failures) {
    ADD_FAILURE() << f;
  }
  if (!o.ok) {
    ADD_FAILURE() << "REPRO: " << repro_line(c, o) << "\n" << o.plan_text;
  }
  // Non-vacuity: the harness really drove traffic through the fault windows.
  EXPECT_GT(o.completed_ops, 0u);
  EXPECT_GT(o.checks_performed, 0u);
  EXPECT_GT(o.faults_injected, 0u);
}

std::string fuzz_case_name(
    const ::testing::TestParamInfo<ClusterFuzzTest::ParamType>& info) {
  std::string n = system_flag(info.param.first);
  // ctest-safe identifier: engine + seed.
  for (char& ch : n) {
    if (ch == '_') ch = 'x';
  }
  return n + "Seed" + std::to_string(info.param.second);
}

std::vector<ClusterFuzzTest::ParamType> make_fuzz_cases() {
  // Two seeds per engine: one Get-Put (even) and one transactional (odd)
  // workload mix (see fuzz_runner), distinct plans per seed.
  const SystemKind systems[] = {
      SystemKind::kPocc, SystemKind::kScalarPocc,
      SystemKind::kHaPocc, SystemKind::kCure};
  std::vector<ClusterFuzzTest::ParamType> cases;
  for (const auto s : systems) {
    cases.emplace_back(s, 11);
    cases.emplace_back(s, 20);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Campaign, ClusterFuzzTest,
                         ::testing::ValuesIn(make_fuzz_cases()),
                         fuzz_case_name);

// Same seed, same engine => bit-identical end state. This is the property
// that makes the one-line repro trustworthy: a failing campaign run replays
// exactly, event for event.
TEST(ClusterFuzzReplay, SameSeedReplaysBitIdentically) {
  FuzzCase c;
  c.system = SystemKind::kHaPocc;  // exercises every fault hook
  c.seed = 11;
  const FuzzOutcome first = run_fuzz_case(c);
  const FuzzOutcome second = run_fuzz_case(c);
  EXPECT_EQ(first.plan_hash, second.plan_hash);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.completed_ops, second.completed_ops);
  EXPECT_EQ(first.checks_performed, second.checks_performed);
  EXPECT_EQ(first.messages_dropped, second.messages_dropped);
}

TEST(ClusterFuzzReplay, DifferentSeedsDiverge) {
  FuzzCase a;
  a.seed = 11;
  FuzzCase b;
  b.seed = 12;
  EXPECT_NE(run_fuzz_case(a).digest, run_fuzz_case(b).digest);
}

}  // namespace
}  // namespace pocc::fault
