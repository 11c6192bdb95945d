// Metric arithmetic and output: exact percentiles of the benchmark's own
// samples, registry counter snapshots, and the final JSON line.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  ///< 0 when the metric is not a percentile
};

/// Nearest-rank percentile (p in (0,100]) of `v`; 0 for an empty set.
double percentile(std::vector<std::int64_t> v, double p);
double median(std::vector<double> v);
/// Nearest-rank percentile of an exact cost distribution (cost -> count).
double percentile(const std::map<std::int64_t, std::uint64_t>& counts,
                  double p);

/// Registry counters the per-layer metrics are computed from.
using Counters = std::map<std::string, std::uint64_t>;
Counters snapshot(dpc::obs::Registry& reg);
/// `after - before` for every counter.
Counters delta(const Counters& after, const Counters& before);

/// The registry histograms the per-layer metrics read; reset at the start
/// of the measured phase so they cover it alone.
const std::vector<std::string>& phase_histograms();

/// Human-readable table (stderr) and the final JSON line (stdout).
void print_table(std::ostream& os, const std::vector<Metric>& metrics);
void print_json(std::ostream& os, bool correct, std::uint64_t attempted,
                std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench
