// Per-peer health state machine (DESIGN.md §5d "Failure model", §5l
// "Gray-failure model").
//
// A PeerHealth watches one *group* of peers (the data servers, the MDS
// cluster, a remote KV store). Each peer is healthy, slow, open or
// half-open. Open/half-open is the always-on hard (up/down) tier, the
// circuit breaker: N consecutive failures open a peer, accesses then
// fast-fail without touching the wire, and every Nth gated call is a
// half-open probe whose success closes the peer again. Slow is the latency
// tier, switched on by enable_tracking(): per peer an EWMA and a streaming
// quantile of observed service latency, from which hang
//
//   * adaptive deadlines — deadline() scales the healthy cohort's observed
//     p99 (floor/ceiling clamped) and replaces the fixed timeout constants
//     in the retry paths, so "how long to wait before declaring an attempt
//     dead" tracks what the cluster actually delivers;
//   * slow-peer quarantine — a peer whose EWMA stays a configured ratio
//     above the group median (or that keeps timing out) turns slow: callers
//     route around it, and every Nth suppressed access probes it for
//     reintegration;
//   * hedged reads — hedge_delay() says how long a read may lag the healthy
//     p99 before speculating, and the hedge token budget caps speculation at
//     a fraction of primary reads so the cure cannot become an overload.
//
// Like the rest of src/fault this is a modelled-time construct: latencies
// are sim::Nanos charges, probing is access-count based, and every decision
// is a pure function of the observation stream — deterministic under a
// fixed fault seed.
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"

namespace dpc::fault {

/// The hard (up/down) tier.
struct BreakerConfig {
  int failure_threshold = 8;  // consecutive failures before opening
  int probe_interval = 16;    // while open, let every Nth gated call through
};

/// The latency tier (enable_tracking()).
struct HealthConfig {
  /// EWMA smoothing factor for per-peer observed latency.
  double ewma_alpha = 0.25;

  /// deadline() = clamp(deadline_scale × healthy-cohort p99, floor, ceiling).
  double deadline_scale = 3.0;
  sim::Nanos deadline_floor = sim::micros(150.0);
  sim::Nanos deadline_ceiling = sim::millis(20.0);

  /// hedge_delay() = clamp(hedge_scale × healthy-cohort p99, floor, the
  /// deadline ceiling). The floor sits far below the deadline floor: hedging
  /// fires on "lagging the cohort", long before "declared dead".
  double hedge_scale = 1.5;
  sim::Nanos hedge_floor = sim::micros(20.0);

  /// Quarantine trigger: a peer strikes when an observation times out, or —
  /// with ≥ 4 peers, where a median is meaningful — when its EWMA exceeds
  /// slow_ratio × the group median EWMA. `slow_strikes` consecutive strikes
  /// quarantine the peer.
  double slow_ratio = 4.0;
  int slow_strikes = 6;
  /// While quarantined, every probe_interval-th suppressed access is let
  /// through as a probe.
  int probe_interval = 8;
  /// Consecutive healthy probes required to reintegrate.
  int reintegrate_successes = 3;

  /// Hedge token budget: each primary read earns `hedge_budget` tokens and
  /// each speculative read spends one, so speculation is capped at this
  /// fraction of primary reads. 0 disables hedging outright.
  double hedge_budget = 0.10;
  /// Token cap — a long healthy stretch must not bank an unbounded burst.
  double hedge_token_cap = 16.0;

  /// Streaming-quantile ring: per-peer window of recent observations, with
  /// the cached p99 recomputed every `quantile_refresh` records.
  int quantile_window = 128;
  int quantile_refresh = 8;
};

class PeerHealth {
 public:
  /// Published per peer as the gauge "health/<group><peer>/state".
  enum class State : std::uint8_t { kHealthy, kSlow, kOpen, kHalfOpen };

  /// What one access tells the hard tier: the peer answered (kUp), did not
  /// (kDown), or the access says nothing about liveness (kNone).
  enum class Reach : std::uint8_t { kNone, kUp, kDown };
  /// What one access tells the latency tier: a completed service time
  /// (kServed), a wait cut at the deadline (kCut — a censored timeout, not
  /// the true service time), or nothing (kNone). Ignored while not tracking.
  /// Integrity failures are NOT cuts — corrupt-but-timely answers must be
  /// kServed so bit-rot cannot masquerade as slowness.
  enum class Sample : std::uint8_t { kNone, kServed, kCut };

  /// `group` prefixes the board's metrics ("health/<group><peer>/…"). With
  /// a registry, the hard tier counts into the group-independent
  /// "breaker/{opens,closes,probes,fast_fails}" counters, shared by name
  /// with every other board.
  PeerHealth(std::string_view group, int peers, BreakerConfig breaker = {},
             obs::Registry* registry = nullptr);

  /// Switches on the latency tier: estimators, deadlines, quarantine and
  /// hedge tokens, with per-peer score/EWMA gauges and
  /// "health/<group>/{quarantines,reintegrations,probes}" counters. Call
  /// once, before the board is shared.
  void enable_tracking(const HealthConfig& cfg = {});
  bool tracking() const { return tracking_; }

  int peers() const { return static_cast<int>(peers_v_.size()); }
  const HealthConfig& config() const { return cfg_; }

  /// Gate for one access: false = fast-fail (or route around the peer).
  /// A peer can be slow and open at once: the quarantine gate runs first
  /// and the open gate counts only what it let through, so such a peer is
  /// probed once per (8 × 16 by default) accesses.
  bool allow(int peer) { return gate(peer, /*quarantine_gate=*/true); }
  /// The open gate alone, for accesses that cannot route around the peer
  /// (a shard write must land on its server) and for a retry after a
  /// failure the caller already reported.
  bool allow_hard(int peer) { return gate(peer, /*quarantine_gate=*/false); }
  /// Feeds one access's verdict to both tiers. `observed` is the modelled
  /// latency the caller experienced (for kCut, the wait that was cut).
  ///
  /// Half-open is *single-probe*: allow() grants exactly one caller the
  /// probe and remembers its thread, and only that thread's kUp/kDown
  /// resolves it. A straggler — an attempt admitted before the peer opened,
  /// reporting mid-probe — must neither re-open it (that would re-arm the
  /// gated-call counter and admit a second concurrent probe) nor close it
  /// (its evidence predates the outage). A probe owner that never reports
  /// (crashed mid-attempt) would wedge the peer half-open forever, so after
  /// probe_interval fast-fails with no verdict the next gated call takes
  /// the probe over.
  void report(int peer, Reach reach, Sample sample = Sample::kNone,
              sim::Nanos observed = {});

  State state(int peer) const;
  bool quarantined(int peer) const;

  /// Current adaptive deadline: scaled healthy-cohort p99, clamped. Falls
  /// back to the ceiling when nothing has been observed yet (be generous
  /// until measured — a cold start must not fail healthy ops).
  sim::Nanos deadline() const {
    return cohort_scaled(cfg_.deadline_scale, cfg_.deadline_floor);
  }
  /// Adaptive hedge trigger: how far an in-flight read may lag before
  /// speculative shards launch.
  sim::Nanos hedge_delay() const {
    return cohort_scaled(cfg_.hedge_scale, cfg_.hedge_floor);
  }

  /// Relative health in (0, 1]: 1 = at or faster than the group median,
  /// approaching 0 the slower the peer, exactly 0 while quarantined.
  double score(int peer) const;
  sim::Nanos ewma(int peer) const;
  sim::Nanos p99(int peer) const;

  /// Peer indices ordered healthiest-first (quarantined peers last);
  /// deterministic tie-break by index.
  std::vector<int> ranked() const;

  /// Hedge budget: each primary read earns budget…
  void note_primary(int reads = 1);
  /// …each speculative read spends it. False = budget exhausted (the caller
  /// must wait out the slow peer instead of hedging).
  bool try_hedge(int reads = 1);

  std::uint64_t quarantines() const;
  std::uint64_t reintegrations() const;

 private:
  struct Peer {
    // Hard tier. `hard` is kHealthy (closed), kOpen or kHalfOpen.
    State hard = State::kHealthy;
    std::uint64_t failures = 0;     // consecutive, reset on success
    std::uint64_t gated = 0;        // calls gated while open
    bool probe_inflight = false;
    std::thread::id probe_owner;
    std::uint64_t halfopen_fast_fails = 0;
    // Latency tier.
    double ewma_ns = -1.0;  // < 0: no data yet
    std::vector<std::int64_t> ring;
    int ring_pos = 0;
    int ring_count = 0;
    int since_refresh = 0;
    std::int64_t cached_p99_ns = 0;  // 0: no data yet
    int strikes = 0;
    bool quarantined = false;
    std::uint64_t suppressed = 0;  // accesses gated since quarantine
    int probe_successes = 0;
  };

  static State state_of(const Peer& p);
  bool gate(int peer, bool quarantine_gate);
  void report_hard_locked(Peer& p, Reach reach) REQUIRES(mu_);
  void sample_locked(Peer& p, Sample sample, sim::Nanos observed)
      REQUIRES(mu_);
  double median_healthy_ewma_locked() const REQUIRES(mu_);
  std::int64_t cohort_p99_locked() const REQUIRES(mu_);
  void refresh_p99_locked(Peer& p) REQUIRES(mu_);
  double score_locked(const Peer& p) const REQUIRES(mu_);
  void publish_peer_locked(int peer) REQUIRES(mu_);
  void publish_state_locked(int peer) REQUIRES(mu_);
  /// clamp(scale × cohort p99, floor, deadline ceiling); the ceiling while
  /// unmeasured.
  sim::Nanos cohort_scaled(double scale, sim::Nanos floor) const;

  BreakerConfig breaker_;
  HealthConfig cfg_;
  std::string group_;
  obs::Registry* registry_;
  bool tracking_ = false;  // set before the board is shared
  mutable sim::AnnotatedMutex mu_{"fault.health", sim::LockRank::kLeaf};
  std::vector<Peer> peers_v_ GUARDED_BY(mu_);
  double hedge_tokens_ GUARDED_BY(mu_) = 0.0;
  std::uint64_t quarantines_n_ GUARDED_BY(mu_) = 0;
  std::uint64_t reintegrations_n_ GUARDED_BY(mu_) = 0;

  // Registry metrics (null/empty without a registry), resolved once — the
  // resolve-once rule for hot paths.
  std::vector<obs::Gauge*> state_gauges_;
  obs::Counter* opens_ = nullptr;
  obs::Counter* closes_ = nullptr;
  obs::Counter* hard_probes_ = nullptr;
  obs::Counter* fast_fails_ = nullptr;
  std::vector<obs::Gauge*> score_gauges_;
  std::vector<obs::Gauge*> ewma_gauges_;
  obs::Counter* quarantines_ctr_ = nullptr;
  obs::Counter* reintegrations_ctr_ = nullptr;
  obs::Counter* probes_ctr_ = nullptr;
};

}  // namespace dpc::fault
