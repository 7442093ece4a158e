// Seed-reproducible cluster-fuzz harness.
//
// One fuzz case = (engine, seed). The seed deterministically derives the
// fault plan, the workload streams, the clock skews and the network jitter,
// so `run_fuzz_case` is a pure function: re-running the same case replays the
// run bit for bit (verified by comparing SimCluster::state_digest across
// runs). Fail-stop crashes go through the one crash model SimNode has: the
// engine's store and version vector are checkpointed with the real snapshot
// codec and a restart rebuilds a fresh engine from them (SimNode::crash).
// A case passes when, after every injected fault has cleared and the
// workload drained:
//   * the online HistoryChecker observed zero causal-consistency violations,
//   * all replicas converged (no divergent keys),
//   * no request is left parked on any server,
//   * the run was not vacuous (operations completed, checks performed).
//
// Shared by tests/cluster_fuzz_test.cpp (small ctest-labeled campaign) and
// bench/fuzz_campaign (the CLI driver CI runs nightly with rotating seeds).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/sim_cluster.hpp"
#include "fault/fault_plan.hpp"

namespace pocc::fault {

struct FuzzCase {
  SystemKind system = SystemKind::kPocc;
  std::uint64_t seed = 1;
  std::uint32_t num_dcs = 3;
  std::uint32_t partitions = 2;
  std::uint32_t clients_per_partition = 2;
  /// Faulted phase length; the fault plan's horizon. All faults clear by
  /// ~90% of this, leaving a fault-free tail before the drain.
  Duration run_us = 600'000;
  /// Fault-free convergence phase after stop_clients().
  Duration drain_us = 5'000'000;
  FaultPlanLimits limits;
};

struct FuzzOutcome {
  bool ok = false;
  std::vector<std::string> failures;  // violations / divergence / vacuity
  std::uint64_t plan_hash = 0;
  std::string plan_text;
  std::uint64_t digest = 0;  // end-state digest (replay verification)
  std::uint64_t completed_ops = 0;
  std::uint64_t checks_performed = 0;
  std::uint64_t versions_registered = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t versions_recovered = 0;  // crash-restart anti-entropy
  std::uint64_t messages_dropped = 0;    // destroyed by faults
  std::uint64_t session_fallbacks = 0;   // closed/timed-out sessions
};

/// The fault plan a case runs (exposed for artifact dumps / tests).
[[nodiscard]] FaultPlan plan_for_case(const FuzzCase& c);

[[nodiscard]] FuzzOutcome run_fuzz_case(const FuzzCase& c);

/// The one-line repro printed on failure: replaying it reruns the identical
/// case (the plan hash lets the replayer prove it rebuilt the same plan).
[[nodiscard]] std::string repro_line(const FuzzCase& c,
                                     const FuzzOutcome& o);

/// 0x-prefixed fixed-width hex (plan hashes, digests).
[[nodiscard]] std::string hex64(std::uint64_t v);

}  // namespace pocc::fault
