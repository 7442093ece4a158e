// Seed-deterministic wire-level fault injection for the TCP deployment.
//
// The simulator's fault fabric (fault/fault_plan.hpp) degrades a modelled
// network; this module degrades the *real* one, while staying faithful to
// what TCP actually lets an application observe. A faulty IP network under a
// TCP connection cannot reorder, drop or duplicate the frames the
// application reads — the kernel retransmits, resequences and de-dupes
// segments — so naive frame-level loss/reorder would violate the lossless
// FIFO channel the protocol assumes (§II-C) and produce *bogus* checker
// violations. What leaks through TCP instead, and what ChaosLink models:
//
//   * propagation delay + jitter        -> frames arrive late,
//   * segment loss                      -> retransmission-timeout stalls,
//   * segment reordering                -> head-of-line blocking delay,
//   * bandwidth limits                  -> serialization delay (token bucket),
//   * connection resets                 -> the peer sees EOF mid-frame and
//                                          both sides replay from a boundary,
//   * partitions (full or asymmetric)   -> the link is down for a window.
//
// Frame *duplication* is the one exception: it is only meaningful (and only
// safe) on client links, where each partition's per-client op_id entry
// (runtime/node_group.hpp) absorbs it — a duplicated server-to-server
// SliceReply would corrupt a transaction. Profiles therefore default dup_p
// to 0 and only the client-facing harnesses raise it.
//
// Determinism: every ChaosLink owns an Rng derived from (campaign seed,
// link id); the timed fault windows come from a ChaosSchedule that
// regenerates a fault::FaultPlan from the same seed — so a soak failure
// reproduces from `--seed N` and proves itself with the plan hash, exactly
// like the simulator fuzz harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/fault_plan.hpp"

namespace pocc::net {

/// Stationary degradation profile of one directed link (what the network
/// "is" between fault windows; the schedule layers timed faults on top).
struct ChaosProfile {
  /// One-way propagation delay added to every frame.
  Duration base_delay_us = 0;
  /// Mean of exponential jitter on top of the base delay.
  Duration jitter_mean_us = 0;
  /// Per-MTU-segment loss probability. A lost segment does not lose the
  /// frame (TCP retransmits); it stalls the stream for rto_penalty_us.
  double loss_p = 0.0;
  /// Stall charged when a segment of the frame needs a retransmission.
  Duration rto_penalty_us = 200'000;
  /// Segment reordering window: a reordered segment head-of-line blocks the
  /// stream for up to this long (uniform). FIFO frame order is preserved.
  Duration reorder_window_us = 0;
  /// Link bandwidth in bytes/second; 0 = unlimited. Frames are serialized
  /// through a token bucket, so a throttled link builds queueing delay.
  double bandwidth_bytes_per_s = 0.0;
  /// Probability a frame is delivered twice (client links ONLY — see above).
  double dup_p = 0.0;
  /// Per-frame probability of a spontaneous connection reset.
  double reset_p = 0.0;
};

/// Timed fault state of a directed link, derived from the active plan
/// windows at one instant.
struct ChaosLinkState {
  bool blocked = false;            // partition window covers this direction
  Duration extra_delay_us = 0;     // sum over active kLinkDegrade windows
  double delay_multiplier = 1.0;   // product over active kLinkDegrade windows
};

/// A fault::FaultPlan projected onto wall-clock time for the real cluster.
/// Replays the exact schedule format the simulator fuzzes: kPartition /
/// kAsymPartition block a direction, kLinkDegrade adds delay, kCrash is
/// exposed for the campaign runner to kill processes. Node-local kinds with
/// no wire meaning (kHeartbeatLoss, kClockSkewRamp) are ignored here.
///
/// Soaks longer than one plan horizon wrap into epochs: epoch e replays
/// FaultPlan::random(seed + e, ...), pre-generated at construction so
/// queries are const and lock-free from any thread.
class ChaosSchedule {
 public:
  /// Covers [0, duration_us) of chaos time with ceil(duration/horizon)
  /// epochs (at least one).
  ChaosSchedule(std::uint64_t seed, const TopologyConfig& topology,
                Duration horizon_us, Duration duration_us,
                const fault::FaultPlanLimits& limits = {});

  /// Fault state of the directed link src -> dst at chaos-relative time `t`.
  [[nodiscard]] ChaosLinkState state(DcId src, DcId dst, Timestamp t) const;

  /// Absolute chaos-relative crash windows (kCrash events across all
  /// epochs, times shifted by their epoch offset), sorted by time.
  struct CrashWindow {
    NodeId node;
    Timestamp at = 0;
    Duration duration = 0;
  };
  [[nodiscard]] const std::vector<CrashWindow>& crashes() const {
    return crashes_;
  }

  /// Content digest of the epoch-0 plan — the repro token printed next to
  /// the seed (`chaos_campaign --seed N` must regenerate this hash).
  [[nodiscard]] std::uint64_t plan_hash() const { return plan_hash_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] Duration horizon_us() const { return horizon_us_; }
  /// Epoch-0 plan, one event per line (artifacts / logs).
  [[nodiscard]] std::string plan_text() const;

 private:
  std::uint64_t seed_;
  Duration horizon_us_;
  std::vector<fault::FaultPlan> epochs_;
  std::vector<CrashWindow> crashes_;
  std::uint64_t plan_hash_ = 0;
};

/// What the chaos layer decided for one frame.
struct ChaosVerdict {
  Duration delay_us = 0;   // hold the frame this long before transmission
  bool duplicate = false;  // transmit the frame twice
  bool reset = false;      // tear the connection down (mid-frame RST)
};

/// Per-directed-link chaos state machine: owns the deterministic Rng, the
/// bandwidth token bucket and the FIFO release clamp. NOT thread-safe — the
/// owner (the transport's poll thread, or the proxy loop) serializes calls.
class ChaosLink {
 public:
  ChaosLink(std::uint64_t seed, ChaosProfile profile);

  /// Attach the timed fault windows: this link is the directed edge
  /// src_dc -> dst_dc, and chaos time 0 is `start_us` on the caller's
  /// monotonic clock. Without a schedule only the profile applies.
  void bind_schedule(std::shared_ptr<const ChaosSchedule> schedule, DcId src,
                     DcId dst, Timestamp start_us);

  /// True while a partition window blocks this direction.
  [[nodiscard]] bool blocked(Timestamp now_us) const;

  /// Decide the fate of one frame entering the link at `now_us`. Must be
  /// called in frame send order; release times are clamped monotone so the
  /// per-link FIFO survives every delay source.
  ChaosVerdict on_frame(std::size_t frame_bytes, Timestamp now_us);

  [[nodiscard]] const ChaosProfile& profile() const { return profile_; }

 private:
  [[nodiscard]] ChaosLinkState timed_state(Timestamp now_us) const;

  ChaosProfile profile_;
  Rng rng_;
  std::shared_ptr<const ChaosSchedule> schedule_;
  DcId src_ = 0;
  DcId dst_ = 0;
  Timestamp start_us_ = 0;
  Timestamp busy_until_us_ = 0;     // token-bucket serialization horizon
  Timestamp last_release_us_ = 0;   // FIFO clamp
};

}  // namespace pocc::net
