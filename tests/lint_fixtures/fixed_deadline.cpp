// dpc_lint negative fixture: fixed-deadline.
//
// The health-scored backends (src/dfs/, src/kv/) cut retries at
// PeerHealth::deadline() — the scaled observed p99 — not at the fixed
// calib timeout constants, which neither track a slow regime nor cut a
// gray-failing peer short. Any mention of the constants in a
// deadline-scoped file is a finding; the untracked fallback (latency
// tracking off) keeps its constant under an explicit suppression.
#include <cstdint>

namespace dpc::lint_fixture {

// Stand-ins for sim::calib — the declarations themselves fire, exactly
// like a copy of the constants smuggled into a backend file would.
namespace calib {
inline constexpr std::int64_t kKvOpTimeout = 500'000;           // expect: fixed-deadline
inline constexpr std::int64_t kNvmeCommandTimeout = 1'000'000;  // expect: fixed-deadline
}  // namespace calib

// A retry loop that waits a fixed 500us per attempt regardless of how the
// peer has actually been behaving.
inline std::int64_t retry_budget_fixed(int attempts) {
  return attempts * calib::kKvOpTimeout;  // expect: fixed-deadline
}

inline std::int64_t nvme_cutoff_fixed() {
  return calib::kNvmeCommandTimeout;  // expect: fixed-deadline
}

// Control: the untracked fallback — a PeerHealth whose latency tracking
// is off has no deadline() to offer — keeps the constant under an explicit
// suppression and must NOT be reported.
inline std::int64_t retry_budget_fallback() {
  return calib::kKvOpTimeout;  // dpc-lint: ok(fixed-deadline) untracked path
}

}  // namespace dpc::lint_fixture
