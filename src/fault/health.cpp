#include "fault/health.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace dpc::fault {

namespace {

std::int64_t clamp_ns(double v, sim::Nanos lo, sim::Nanos hi) {
  const auto n = static_cast<std::int64_t>(v);
  return std::clamp(n, lo.ns, hi.ns);
}

/// The one probe scheduler both tiers share: true on every interval-th call.
bool every_nth(std::uint64_t& calls, int interval) {
  return ++calls % static_cast<std::uint64_t>(interval) == 0;
}

/// The i-th smallest element of `v` (reordered in the process).
template <typename T>
T select(std::vector<T>& v, std::size_t i) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                   v.end());
  return v[i];
}

}  // namespace

PeerHealth::PeerHealth(std::string_view group, int peers,
                       BreakerConfig breaker, obs::Registry* registry)
    : breaker_(breaker), group_(group), registry_(registry) {
  DPC_CHECK(peers >= 1);
  DPC_CHECK(breaker_.failure_threshold >= 1);
  DPC_CHECK(breaker_.probe_interval >= 1);
  peers_v_.resize(static_cast<std::size_t>(peers));
  if (registry != nullptr) {
    opens_ = &registry->counter("breaker/opens");
    closes_ = &registry->counter("breaker/closes");
    hard_probes_ = &registry->counter("breaker/probes");
    fast_fails_ = &registry->counter("breaker/fast_fails");
    for (int i = 0; i < peers; ++i) {
      state_gauges_.push_back(&registry->gauge(
          "health/" + group_ + std::to_string(i) + "/state"));
      state_gauges_.back()->set(static_cast<std::int64_t>(State::kHealthy));
    }
  }
}

void PeerHealth::enable_tracking(const HealthConfig& cfg) {
  DPC_CHECK(!tracking_);
  DPC_CHECK(cfg.ewma_alpha > 0.0 && cfg.ewma_alpha <= 1.0);
  DPC_CHECK(cfg.deadline_floor.ns <= cfg.deadline_ceiling.ns);
  DPC_CHECK(cfg.slow_strikes >= 1);
  DPC_CHECK(cfg.probe_interval >= 1);
  DPC_CHECK(cfg.reintegrate_successes >= 1);
  DPC_CHECK(cfg.quantile_window >= 2);
  DPC_CHECK(cfg.quantile_refresh >= 1);
  cfg_ = cfg;
  tracking_ = true;
  sim::LockGuard lock(mu_);
  for (auto& p : peers_v_)
    p.ring.resize(static_cast<std::size_t>(cfg_.quantile_window));
  if (registry_ != nullptr) {
    const std::string prefix = "health/" + group_;
    for (int i = 0; i < peers(); ++i) {
      const std::string stem = prefix + std::to_string(i);
      score_gauges_.push_back(&registry_->gauge(stem + "/score_milli"));
      score_gauges_.back()->set(1000);  // unmeasured = presumed healthy
      ewma_gauges_.push_back(&registry_->gauge(stem + "/ewma_ns"));
    }
    quarantines_ctr_ = &registry_->counter(prefix + "/quarantines");
    reintegrations_ctr_ = &registry_->counter(prefix + "/reintegrations");
    probes_ctr_ = &registry_->counter(prefix + "/probes");
  }
}

void PeerHealth::refresh_p99_locked(Peer& p) {
  if (p.ring_count == 0) return;
  // "Streaming quantile": bounded ring of recent observations, p99 read by
  // selection. Deterministic and windowed — exactly what an adaptive
  // deadline wants (old regimes age out as the window slides).
  std::vector<std::int64_t> tmp(p.ring.begin(),
                                p.ring.begin() + p.ring_count);
  p.cached_p99_ns = select(
      tmp, static_cast<std::size_t>(static_cast<double>(p.ring_count - 1) *
                                    0.99));
}

double PeerHealth::median_healthy_ewma_locked() const {
  std::vector<double> vals;
  vals.reserve(peers_v_.size());
  for (const Peer& p : peers_v_)
    if (!p.quarantined && p.ewma_ns >= 0.0) vals.push_back(p.ewma_ns);
  return vals.empty() ? -1.0 : select(vals, vals.size() / 2);
}

std::int64_t PeerHealth::cohort_p99_locked() const {
  // The healthy cohort's p99: median of the non-quarantined peers' cached
  // p99s. The median (not max) keeps one not-yet-quarantined limper from
  // dragging the deadline out to its own tail — the cohort defines what an
  // access "should" take.
  std::vector<std::int64_t> vals;
  vals.reserve(peers_v_.size());
  for (const Peer& p : peers_v_)
    if (!p.quarantined && p.cached_p99_ns > 0) vals.push_back(p.cached_p99_ns);
  if (vals.empty()) {
    for (const Peer& p : peers_v_)
      if (p.cached_p99_ns > 0) vals.push_back(p.cached_p99_ns);
  }
  return vals.empty() ? 0 : select(vals, vals.size() / 2);
}

double PeerHealth::score_locked(const Peer& p) const {
  if (p.quarantined) return 0.0;
  if (p.ewma_ns <= 0.0) return 1.0;
  const double med = median_healthy_ewma_locked();
  return med <= 0.0 ? 1.0 : std::min(1.0, med / p.ewma_ns);
}

void PeerHealth::publish_peer_locked(int peer) {
  if (score_gauges_.empty()) return;
  const Peer& p = peers_v_[static_cast<std::size_t>(peer)];
  score_gauges_[static_cast<std::size_t>(peer)]->set(
      static_cast<std::int64_t>(score_locked(p) * 1000.0));
  ewma_gauges_[static_cast<std::size_t>(peer)]->set(
      p.ewma_ns < 0.0 ? 0 : static_cast<std::int64_t>(p.ewma_ns));
}

PeerHealth::State PeerHealth::state_of(const Peer& p) {
  if (p.hard != State::kHealthy) return p.hard;
  return p.quarantined ? State::kSlow : State::kHealthy;
}

void PeerHealth::publish_state_locked(int peer) {
  if (state_gauges_.empty()) return;
  const auto i = static_cast<std::size_t>(peer);
  state_gauges_[i]->set(static_cast<std::int64_t>(state_of(peers_v_[i])));
}

bool PeerHealth::gate(int peer, bool quarantine_gate) {
  sim::LockGuard lock(mu_);
  Peer& p = peers_v_[static_cast<std::size_t>(peer)];
  if (quarantine_gate && p.quarantined) {
    if (!every_nth(p.suppressed, cfg_.probe_interval)) return false;
    if (probes_ctr_ != nullptr) probes_ctr_->add();  // reintegration probe
  }
  if (p.hard == State::kHealthy) return true;
  // Open: let every probe_interval-th gated call through as a probe; the
  // rest fast-fail so a dead peer doesn't eat full timeouts per op.
  // Half-open: a probe is in flight, don't pile on — unless its owner has
  // gone quiet for a full probe interval (crashed mid-attempt); then take
  // the probe over, and the original owner's late report is a straggler.
  const bool probe =
      p.hard == State::kOpen
          ? every_nth(p.gated, breaker_.probe_interval)
          : p.probe_inflight &&
                ++p.halfopen_fast_fails >
                    static_cast<std::uint64_t>(breaker_.probe_interval);
  if (!probe) {
    if (fast_fails_ != nullptr) fast_fails_->add();
    return false;
  }
  if (p.hard == State::kOpen) {
    p.hard = State::kHalfOpen;
    p.probe_inflight = true;
    publish_state_locked(peer);
  }
  p.probe_owner = std::this_thread::get_id();
  p.halfopen_fast_fails = 0;
  if (hard_probes_ != nullptr) hard_probes_->add();
  return true;
}

void PeerHealth::report_hard_locked(Peer& p, Reach reach) {
  const bool up = reach == Reach::kUp;
  p.failures = up ? 0 : p.failures + 1;
  // A straggler (see report()) resolves nothing.
  if (p.probe_inflight && p.probe_owner != std::this_thread::get_id()) return;
  p.probe_inflight = false;
  p.halfopen_fast_fails = 0;
  if (up) {
    if (p.hard != State::kHealthy && closes_ != nullptr) closes_->add();
    p.hard = State::kHealthy;
  } else if (p.hard == State::kHalfOpen) {
    p.hard = State::kOpen;  // probe failed: stay open, no new open event
  } else if (p.hard == State::kHealthy &&
             p.failures >=
                 static_cast<std::uint64_t>(breaker_.failure_threshold)) {
    p.hard = State::kOpen;
    p.gated = 0;
    if (opens_ != nullptr) opens_->add();
  }
}

void PeerHealth::sample_locked(Peer& p, Sample sample, sim::Nanos observed) {
  const bool ok = sample == Sample::kServed;
  const auto obs = static_cast<double>(observed.ns);
  // Only *completed* observations feed the latency statistics. A censored
  // timeout is recorded at the deadline that cut it — pushing that into the
  // window would feed the deadline its own output: p99 → deadline →
  // 3×deadline on the next refresh, unbounded, until the very stalls the
  // deadline exists to cut fit under it. Timeouts drive strikes/quarantine
  // below; the latency window keeps describing the healthy regime.
  if (ok) {
    p.ewma_ns = p.ewma_ns < 0.0
                    ? obs
                    : cfg_.ewma_alpha * obs +
                          (1.0 - cfg_.ewma_alpha) * p.ewma_ns;
    p.ring[static_cast<std::size_t>(p.ring_pos)] = observed.ns;
    p.ring_pos = (p.ring_pos + 1) % cfg_.quantile_window;
    p.ring_count = std::min(p.ring_count + 1, cfg_.quantile_window);
    if (++p.since_refresh >= cfg_.quantile_refresh || p.cached_p99_ns == 0) {
      p.since_refresh = 0;
      refresh_p99_locked(p);
    }
  }

  if (p.quarantined) {
    // Only probes reach a quarantined peer, so this observation is the
    // probe's verdict.
    p.probe_successes = ok ? p.probe_successes + 1 : 0;
    if (p.probe_successes >= cfg_.reintegrate_successes) {
      p.quarantined = false;
      p.strikes = 0;
      p.suppressed = 0;
      p.probe_successes = 0;
      // Drop the limp-era window: the reintegrated peer's deadline/score
      // must reflect its probed (healthy) latency, not its quarantined past.
      p.ring[0] = observed.ns;
      p.ring_pos = 1 % cfg_.quantile_window;
      p.ring_count = 1;
      p.since_refresh = 0;
      p.cached_p99_ns = observed.ns;
      p.ewma_ns = obs;
      ++reintegrations_n_;
      if (reintegrations_ctr_ != nullptr) reintegrations_ctr_->add();
    }
  } else {
    bool suspect = !ok;
    if (ok && peers_v_.size() >= 4) {
      // With a cohort to compare against, sustained relative slowness
      // strikes even when every access completes inside the deadline.
      const double med = median_healthy_ewma_locked();
      suspect = med > 0.0 && p.ewma_ns > cfg_.slow_ratio * med;
    }
    p.strikes = suspect ? p.strikes + 1 : 0;
    if (p.strikes >= cfg_.slow_strikes) {
      p.quarantined = true;
      p.suppressed = 0;
      p.probe_successes = 0;
      ++quarantines_n_;
      if (quarantines_ctr_ != nullptr) quarantines_ctr_->add();
    }
  }
}

void PeerHealth::report(int peer, Reach reach, Sample sample,
                        sim::Nanos observed) {
  sim::LockGuard lock(mu_);
  Peer& p = peers_v_[static_cast<std::size_t>(peer)];
  const State before = state_of(p);
  if (reach != Reach::kNone) report_hard_locked(p, reach);
  if (tracking_ && sample != Sample::kNone) {
    sample_locked(p, sample, observed);
    publish_peer_locked(peer);
  }
  if (state_of(p) != before) publish_state_locked(peer);
}

PeerHealth::State PeerHealth::state(int peer) const {
  sim::LockGuard lock(mu_);
  return state_of(peers_v_[static_cast<std::size_t>(peer)]);
}

sim::Nanos PeerHealth::cohort_scaled(double scale, sim::Nanos floor) const {
  sim::LockGuard lock(mu_);
  const std::int64_t q = cohort_p99_locked();
  if (q == 0) return cfg_.deadline_ceiling;  // unmeasured: be generous
  return sim::Nanos{clamp_ns(scale * static_cast<double>(q), floor,
                             cfg_.deadline_ceiling)};
}

double PeerHealth::score(int peer) const {
  sim::LockGuard lock(mu_);
  return score_locked(peers_v_[static_cast<std::size_t>(peer)]);
}

sim::Nanos PeerHealth::ewma(int peer) const {
  sim::LockGuard lock(mu_);
  const Peer& p = peers_v_[static_cast<std::size_t>(peer)];
  return sim::Nanos{p.ewma_ns < 0.0 ? 0
                                    : static_cast<std::int64_t>(p.ewma_ns)};
}

sim::Nanos PeerHealth::p99(int peer) const {
  sim::LockGuard lock(mu_);
  return sim::Nanos{peers_v_[static_cast<std::size_t>(peer)].cached_p99_ns};
}

bool PeerHealth::quarantined(int peer) const {
  sim::LockGuard lock(mu_);
  return peers_v_[static_cast<std::size_t>(peer)].quarantined;
}

std::vector<int> PeerHealth::ranked() const {
  sim::LockGuard lock(mu_);
  std::vector<int> order(peers_v_.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const Peer& pa = peers_v_[static_cast<std::size_t>(a)];
    const Peer& pb = peers_v_[static_cast<std::size_t>(b)];
    if (pa.quarantined != pb.quarantined) return !pa.quarantined;
    // Unmeasured peers (ewma < 0) sort as fast — give them traffic so they
    // get measured.
    const double ea = pa.ewma_ns < 0.0 ? 0.0 : pa.ewma_ns;
    const double eb = pb.ewma_ns < 0.0 ? 0.0 : pb.ewma_ns;
    return ea < eb;
  });
  return order;
}

void PeerHealth::note_primary(int reads) {
  sim::LockGuard lock(mu_);
  hedge_tokens_ = std::min(cfg_.hedge_token_cap,
                           hedge_tokens_ + cfg_.hedge_budget * reads);
}

bool PeerHealth::try_hedge(int reads) {
  sim::LockGuard lock(mu_);
  if (hedge_tokens_ < static_cast<double>(reads)) return false;
  hedge_tokens_ -= static_cast<double>(reads);
  return true;
}

std::uint64_t PeerHealth::quarantines() const {
  sim::LockGuard lock(mu_);
  return quarantines_n_;
}

std::uint64_t PeerHealth::reintegrations() const {
  sim::LockGuard lock(mu_);
  return reintegrations_n_;
}

}  // namespace dpc::fault
