// Unit tests for the fault-injection framework: deterministic schedules,
// site gating, probability bounds, retry backoff, and the per-peer
// open/half-open machine (the circuit breaker tier of PeerHealth).
#include "fault/health.hpp"
#include "fault/injector.hpp"
#include "fault/retry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

namespace dpc::fault {
namespace {

constexpr std::string_view kSite = "test/site";

std::vector<bool> draw_schedule(FaultInjector& fi, std::string_view site,
                                int n) {
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(fi.should_fail(site));
  return out;
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultInjector a(1234);
  FaultInjector b(1234);
  a.arm(kSite, 0.2);
  b.arm(kSite, 0.2);
  EXPECT_EQ(draw_schedule(a, kSite, 1000), draw_schedule(b, kSite, 1000));
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjector a(1);
  FaultInjector b(2);
  a.arm(kSite, 0.5);
  b.arm(kSite, 0.5);
  EXPECT_NE(draw_schedule(a, kSite, 1000), draw_schedule(b, kSite, 1000));
}

TEST(FaultInjector, SitesAreIndependent) {
  // The schedule of one site must not depend on draws at another.
  FaultInjector a(99);
  FaultInjector b(99);
  a.arm("site/x", 0.3);
  a.arm("site/y", 0.7);
  b.arm("site/x", 0.3);
  // a interleaves x and y draws; b draws only x. x's schedule must match.
  std::vector<bool> ax;
  for (int i = 0; i < 500; ++i) {
    ax.push_back(a.should_fail("site/x"));
    (void)a.should_fail("site/y");
  }
  EXPECT_EQ(ax, draw_schedule(b, "site/x", 500));
}

TEST(FaultInjector, UnarmedNeverFires) {
  FaultInjector fi(7);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fi.should_fail("no/such/site"));
  EXPECT_EQ(fi.draws("no/such/site"), 0u);
  EXPECT_FALSE(fi.armed("no/such/site"));
}

TEST(FaultInjector, ProbabilityBounds) {
  FaultInjector fi(42);
  fi.arm("p/zero", 0.0);
  fi.arm("p/one", 1.0);
  fi.arm("p/quarter", 0.25);
  int zero = 0, one = 0, quarter = 0;
  for (int i = 0; i < 10000; ++i) {
    zero += fi.should_fail("p/zero") ? 1 : 0;
    one += fi.should_fail("p/one") ? 1 : 0;
    quarter += fi.should_fail("p/quarter") ? 1 : 0;
  }
  EXPECT_EQ(zero, 0);
  EXPECT_EQ(one, 10000);
  // Binomial(10000, .25): mean 2500, sd ~43 — ±500 is >10 sigma.
  EXPECT_GT(quarter, 2000);
  EXPECT_LT(quarter, 3000);
}

TEST(FaultInjector, DisableAndReenable) {
  FaultInjector fi(5);
  fi.arm(kSite, 1.0);
  EXPECT_TRUE(fi.should_fail(kSite));
  fi.set_enabled(kSite, false);
  EXPECT_FALSE(fi.should_fail(kSite));  // gated: no fire, no draw consumed
  const auto draws = fi.draws(kSite);
  fi.set_enabled(kSite, true);
  EXPECT_TRUE(fi.should_fail(kSite));
  EXPECT_EQ(fi.draws(kSite), draws + 1);
  fi.disarm(kSite);
  EXPECT_FALSE(fi.armed(kSite));
  EXPECT_FALSE(fi.should_fail(kSite));
}

TEST(FaultInjector, RearmResetsNothingButProbability) {
  FaultInjector fi(5);
  fi.arm(kSite, 1.0);
  (void)fi.should_fail(kSite);
  fi.arm(kSite, 0.0);
  EXPECT_DOUBLE_EQ(fi.probability(kSite), 0.0);
  EXPECT_FALSE(fi.should_fail(kSite));
}

TEST(FaultInjector, CountersTrackChecksAndInjections) {
  obs::Registry reg;
  FaultInjector fi(11, &reg);
  fi.arm(kSite, 1.0);
  for (int i = 0; i < 5; ++i) (void)fi.should_fail(kSite);
  EXPECT_EQ(reg.counter("fault/checks").value(), 5u);
  EXPECT_EQ(reg.counter("fault/injected").value(), 5u);
}

TEST(FaultInjector, ConcurrentDrawsAreSeedStableAsMultiset) {
  // Threads race for draw indices within one site; the total number of
  // injections only depends on the seed.
  const auto run = [] {
    FaultInjector fi(77);
    fi.arm(kSite, 0.5);
    std::atomic<int> fails{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t)
      ts.emplace_back([&] {
        for (int i = 0; i < 1000; ++i)
          if (fi.should_fail(kSite)) fails.fetch_add(1);
      });
    for (auto& t : ts) t.join();
    return fails.load();
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjector, SeedFromEnv) {
  ::setenv("DPC_FAULT_SEED", "98765", 1);
  EXPECT_EQ(FaultInjector::seed_from_env(), 98765u);
  ::setenv("DPC_FAULT_SEED", "not-a-number", 1);
  EXPECT_EQ(FaultInjector::seed_from_env(31), 31u);
  ::unsetenv("DPC_FAULT_SEED");
  EXPECT_EQ(FaultInjector::seed_from_env(17), 17u);
}

TEST(RetryPolicy, BackoffGrowsExponentially) {
  RetryPolicy p;
  p.jitter = 0.0;  // isolate the exponential part
  const auto b1 = p.backoff(1, 0);
  const auto b2 = p.backoff(2, 0);
  const auto b3 = p.backoff(3, 0);
  EXPECT_EQ(b1, p.base_backoff);
  EXPECT_EQ(b2.ns, b1.ns * 2);
  EXPECT_EQ(b3.ns, b1.ns * 4);
}

TEST(RetryPolicy, JitterBoundedAndDeterministic) {
  RetryPolicy p;  // jitter = 0.5 → scale in [0.75, 1.25]
  for (int attempt = 1; attempt <= 4; ++attempt) {
    for (std::uint64_t salt = 0; salt < 50; ++salt) {
      const auto b = p.backoff(attempt, salt);
      const double base = static_cast<double>(p.base_backoff.ns);
      const double exp = base * std::pow(p.multiplier, attempt - 1);
      EXPECT_GE(static_cast<double>(b.ns), exp * 0.749);
      EXPECT_LE(static_cast<double>(b.ns), exp * 1.251);
      EXPECT_EQ(b, p.backoff(attempt, salt)) << "not deterministic";
    }
  }
  // Different salts should not all collapse to one value.
  EXPECT_NE(p.backoff(1, 1), p.backoff(1, 2));
}

TEST(RetryPolicy, JitteredNeverRoundsPositiveBaseToZero) {
  // A sub-nanosecond draw (tiny base × big jitter) used to truncate to 0
  // (or below), turning every pacer built on jittered() into a busy spin.
  for (std::int64_t base_ns : {1, 2, 3, 10}) {
    for (int step = 0; step < 256; ++step) {
      for (std::uint64_t salt = 0; salt < 16; ++salt) {
        const auto w = jittered(sim::Nanos{base_ns}, /*jitter=*/1.9, step,
                                salt);
        EXPECT_GE(w.ns, 1) << "base=" << base_ns << " step=" << step
                           << " salt=" << salt;
      }
    }
  }
  // A zero base is a legitimate "no pacing" request and stays zero.
  EXPECT_EQ(jittered(sim::Nanos{0}, 1.9, 7, 7).ns, 0);
}

using State = PeerHealth::State;
constexpr auto kUp = PeerHealth::Reach::kUp;
constexpr auto kDown = PeerHealth::Reach::kDown;

TEST(PeerHealth, OpensAfterThresholdAndProbes) {
  obs::Registry reg;
  BreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.probe_interval = 4;
  PeerHealth br("t", 1, cfg, &reg);

  EXPECT_EQ(br.state(0), State::kHealthy);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(br.allow(0));
    br.report(0, kDown);
  }
  EXPECT_EQ(br.state(0), State::kOpen);
  EXPECT_EQ(reg.counter("breaker/opens").value(), 1u);

  // While open: fast-fail until the probe_interval-th gated call probes.
  int allowed = 0;
  for (int i = 0; i < 4; ++i) allowed += br.allow(0) ? 1 : 0;
  EXPECT_EQ(allowed, 1);  // exactly the probe
  EXPECT_EQ(br.state(0), State::kHalfOpen);
  EXPECT_EQ(reg.counter("breaker/probes").value(), 1u);
  EXPECT_EQ(reg.counter("breaker/fast_fails").value(), 3u);

  // Failed probe → back to open.
  br.report(0, kDown);
  EXPECT_EQ(br.state(0), State::kOpen);

  // Next probe succeeds → closed.
  allowed = 0;
  for (int i = 0; i < 4; ++i) allowed += br.allow(0) ? 1 : 0;
  EXPECT_EQ(allowed, 1);
  br.report(0, kUp);
  EXPECT_EQ(br.state(0), State::kHealthy);
  EXPECT_EQ(reg.counter("breaker/closes").value(), 1u);
  EXPECT_TRUE(br.allow(0));
}

// Drives the peer open and to the half-open probe on the calling thread.
void open_and_probe(PeerHealth& br, const BreakerConfig& cfg) {
  for (int i = 0; i < cfg.failure_threshold; ++i) {
    ASSERT_TRUE(br.allow(0));
    br.report(0, kDown);
  }
  ASSERT_EQ(br.state(0), State::kOpen);
  for (int i = 0; i < cfg.probe_interval - 1; ++i) ASSERT_FALSE(br.allow(0));
  ASSERT_TRUE(br.allow(0));  // this thread owns the probe
  ASSERT_EQ(br.state(0), State::kHalfOpen);
}

/// Runs `fn` on a different thread than the caller's — a "straggler": an
/// attempt admitted before the peer opened, reporting in mid-probe.
template <typename Fn>
void on_other_thread(Fn fn) {
  std::thread t(fn);
  t.join();
}

TEST(PeerHealth, HalfOpenStragglerFailureCannotReopen) {
  // Regression: a straggler's on_failure used to flip HalfOpen → Open and
  // re-arm the gated-call counter, letting a *second* concurrent probe
  // through while the first was still in flight.
  BreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.probe_interval = 4;
  PeerHealth br("t", 1, cfg);
  open_and_probe(br, cfg);

  on_other_thread([&] { br.report(0, kDown); });
  EXPECT_EQ(br.state(0), State::kHalfOpen);
  // And crucially: no second probe is admitted while the first is out.
  on_other_thread([&] { EXPECT_FALSE(br.allow(0)); });

  // The owner's own verdict still resolves the probe.
  br.report(0, kDown);
  EXPECT_EQ(br.state(0), State::kOpen);
}

TEST(PeerHealth, HalfOpenStragglerSuccessCannotClose) {
  // A straggler's success is evidence that predates the outage — it must
  // not close the peer out from under the in-flight probe.
  BreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.probe_interval = 4;
  PeerHealth br("t", 1, cfg);
  open_and_probe(br, cfg);

  on_other_thread([&] { br.report(0, kUp); });
  EXPECT_EQ(br.state(0), State::kHalfOpen);

  br.report(0, kUp);  // the probe's own success closes
  EXPECT_EQ(br.state(0), State::kHealthy);
}

TEST(PeerHealth, HalfOpenAdmitsExactlyOneConcurrentProbe) {
  // Two threads race allow() at the probe boundary: exactly one may win
  // the probe; the loser fast-fails.
  for (int round = 0; round < 50; ++round) {
    BreakerConfig cfg;
    cfg.failure_threshold = 1;
    cfg.probe_interval = 1;  // every gated call is probe-eligible
    PeerHealth br("t", 1, cfg);
    ASSERT_TRUE(br.allow(0));
    br.report(0, kDown);
    ASSERT_EQ(br.state(0), State::kOpen);

    std::atomic<int> granted{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < 2; ++t)
      ts.emplace_back([&] {
        if (br.allow(0)) granted.fetch_add(1);
      });
    for (auto& t : ts) t.join();
    EXPECT_EQ(granted.load(), 1);
    EXPECT_EQ(br.state(0), State::kHalfOpen);
  }
}

TEST(PeerHealth, WedgedProbeIsTakenOver) {
  // The probe owner crashes mid-attempt and never reports. After a full
  // probe interval of half-open fast-fails, the next gated call takes the
  // probe over instead of wedging half-open forever.
  BreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.probe_interval = 4;
  PeerHealth br("t", 1, cfg);
  for (int i = 0; i < cfg.failure_threshold; ++i) {
    ASSERT_TRUE(br.allow(0));
    br.report(0, kDown);
  }
  // Another thread wins the probe… and goes silent.
  on_other_thread([&] {
    for (int i = 0; i < cfg.probe_interval - 1; ++i) ASSERT_FALSE(br.allow(0));
    ASSERT_TRUE(br.allow(0));
  });
  ASSERT_EQ(br.state(0), State::kHalfOpen);

  for (int i = 0; i < cfg.probe_interval; ++i) EXPECT_FALSE(br.allow(0));
  EXPECT_TRUE(br.allow(0));  // takeover: this thread now owns the probe
  br.report(0, kUp);
  EXPECT_EQ(br.state(0), State::kHealthy);
  EXPECT_TRUE(br.allow(0));
}

TEST(PeerHealth, SuccessResetsFailureStreak) {
  BreakerConfig cfg;
  cfg.failure_threshold = 3;
  PeerHealth br("t", 1, cfg);
  br.report(0, kDown);
  br.report(0, kDown);
  br.report(0, kUp);
  br.report(0, kDown);
  br.report(0, kDown);
  EXPECT_EQ(br.state(0), State::kHealthy);
  br.report(0, kDown);
  EXPECT_EQ(br.state(0), State::kOpen);
}

}  // namespace
}  // namespace dpc::fault
