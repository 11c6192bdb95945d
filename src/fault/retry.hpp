// Retry policy (exponential backoff + deterministic jitter), the recovery
// primitive every layer shares. The per-peer circuit breaker lives with the
// rest of per-peer health in fault/health.hpp.
//
// A modelled-time construct: backoff returns a sim::Nanos charge the caller
// folds into the op's cost, so recovery behaviour is deterministic and
// testable without sleeping.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace dpc::fault {

/// What kind of transient condition made an op fail (or retry). Carried on
/// results so callers can distinguish "retry later" from hard errors.
enum class Transient : std::uint8_t {
  kNone = 0,     // not a transient failure
  kTimeout,      // deadline expired (possibly after retries)
  kUnavailable,  // backend fast-failed (circuit open)
  kBusy,         // resource contention (e.g. delegation recall refused)
};

constexpr std::string_view to_string(Transient t) {
  switch (t) {
    case Transient::kNone: return "none";
    case Transient::kTimeout: return "timeout";
    case Transient::kUnavailable: return "unavailable";
    case Transient::kBusy: return "busy";
  }
  return "?";
}

/// Deterministic jitter: scales `base` by uniform [1-j/2, 1+j/2] drawn from
/// a pure hash of (step, salt). The one jitter derivation shared by every
/// pacer — RetryPolicy::backoff and the scrubber's inter-pass spacing —
/// instead of each call site re-rolling its own hash.
sim::Nanos jittered(sim::Nanos base, double jitter, int step,
                    std::uint64_t salt);

/// Bounded exponential backoff with deterministic jitter. Stateless: the
/// jitter for (attempt, salt) is a pure hash, so identical runs charge
/// identical backoff costs.
struct RetryPolicy {
  int max_attempts = 4;                      // total tries, not re-tries
  sim::Nanos base_backoff = sim::micros(50.0);
  double multiplier = 2.0;
  double jitter = 0.5;  // backoff scaled by uniform [1-j/2, 1+j/2]

  /// Modelled wait before try `attempt` (1-based count of *failed* tries so
  /// far). `salt` decorrelates concurrent retriers (use a cid, ino, …).
  sim::Nanos backoff(int attempt, std::uint64_t salt) const;
};

}  // namespace dpc::fault
