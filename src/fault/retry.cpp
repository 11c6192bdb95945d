#include "fault/retry.hpp"

#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace dpc::fault {

sim::Nanos jittered(sim::Nanos base, double jitter, int step,
                    std::uint64_t salt) {
  if (jitter <= 0.0) return base;
  std::uint64_t x =
      salt ^ (0xa0761d6478bd642fULL * static_cast<std::uint64_t>(step));
  const std::uint64_t z = sim::detail::splitmix64(x);
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0,1)
  const double b = static_cast<double>(base.ns) * (1.0 + jitter * (u - 0.5));
  sim::Nanos out{static_cast<std::int64_t>(b)};
  // A positive base must yield a positive wait: a large jitter factor can
  // scale the draw into (-inf, 1) and the truncation rounds it to zero (or
  // below), which would turn a backoff/pacer into a busy spin.
  if (base.ns > 0 && out.ns < 1) out.ns = 1;
  return out;
}

sim::Nanos RetryPolicy::backoff(int attempt, std::uint64_t salt) const {
  DPC_CHECK(attempt >= 1);
  double b = static_cast<double>(base_backoff.ns);
  for (int i = 1; i < attempt; ++i) b *= multiplier;
  return jittered(sim::Nanos{static_cast<std::int64_t>(b)}, jitter, attempt,
                  salt);
}

}  // namespace dpc::fault
