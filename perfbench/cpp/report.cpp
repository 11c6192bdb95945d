#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>

namespace perfbench {

double percentile(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

double percentile(const std::map<std::int64_t, std::uint64_t>& counts,
                  double p) {
  std::uint64_t total = 0;
  for (const auto& [v, n] : counts) total += n;
  if (total == 0) return 0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (const auto& [v, n] : counts) {
    seen += n;
    if (seen >= rank) return static_cast<double>(v);
  }
  return static_cast<double>(counts.rbegin()->first);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names{
      "dispatch/backend_ns",       "dispatch/ops",
      "dispatch/wal_fast_acks",    "dispatch/wal_fallbacks",
      "retry/attempts",            "nvme.ini/sq_doorbells",
      "nvme.ini/cq_doorbells",     "nvme.ini/queue_full_waits",
      "cache.host/read_hits",      "cache.host/read_misses",
      "cache.host/lockfree_hits",  "cache.host/seqlock_retries",
      "cache.host/write_stalls",   "cache.ctl/pages_flushed",
      "cache.ctl/pages_evicted",   "cache.ctl/pages_prefetched",
      "kvfs/dentry_hits",          "kvfs/dentry_misses",
      "kvfs/attr_hits",            "kvfs/attr_misses",
      "kvfs/big_inplace_writes",   "kvfs/small_rewrites",
      "kvfs.journal/appends",      "kvfs.journal/wal_appends",
      "nvm.dev/fences",            "nvm.dev/writes",
      "wal/appends",               "wal/checkpoints",
      "wal/ring_full",             "dfs.client/ds_ops",
      "dfs.client/mds_ops",        "dfs.client/reads",
      "dfs.client/writes",         "dfs.client/meta_ops",
      "ec/degraded_reads",
  };
  return names;
}

}  // namespace

Counters snapshot(dpc::obs::Registry& reg) {
  Counters out;
  for (const auto& n : counter_names()) out[n] = reg.counter(n).load();
  return out;
}

Counters delta(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    out[name] = v - (it == before.end() ? 0 : it->second);
  }
  return out;
}

const std::vector<std::string>& phase_histograms() {
  static const std::vector<std::string> names{
      "trace/submit_to_fetch_ns", "trace/fetch_to_dispatch_ns",
      "trace/dispatch_to_backend_ns", "trace/backend_to_cqe_ns",
      "trace/cqe_to_reap_ns", "cache.ctl/flush_pass_ns",
      "dfs.client/backend_ns"};
  return names;
}

void print_table(std::ostream& os, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    os << "  " << std::left << std::setw(40) << m.name << std::right
       << std::setw(16) << std::setprecision(6) << m.value << " " << m.unit;
    if (m.samples > 0) os << "  (n=" << m.samples << ")";
    os << "\n";
  }
}

void print_json(std::ostream& os, bool correct, std::uint64_t attempted,
                std::uint64_t failed, const std::vector<Metric>& metrics) {
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.10g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}" << std::endl;
}

}  // namespace perfbench
