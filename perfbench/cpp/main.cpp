// dpc_perfbench — the repository benchmark. Runs one seeded, closed-loop
// workload against a live DpcSystem (DPU workers running), verifies every
// output against a shadow copy, and prints every metric by name and unit.
// The last line of stdout is one JSON object.
//
//   dpc_perfbench --workload kvfs-direct-8k --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs three phases of
// a third of --seconds each (untraced, traced, layer peel) and prints the
// per-layer metrics. Options for the benchmark's own tests:
//   --ops N                fixed measured steps per thread instead of time
//   --setups N             set-up repetitions (default 5; setup_s = median)
//   --inject flip-byte|drop-write   corrupt the oracle: the run must fail
//   --check-determinism    run twice with one seed and compare the runs
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t ops = 0;
  int setups = 5;
  Inject inject = Inject::kNone;
  bool check_determinism = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = std::stoi(val()) != 0;
    else if (k == "--ops") a.ops = std::stoull(val());
    else if (k == "--setups") a.setups = std::stoi(val());
    else if (k == "--check-determinism") a.check_determinism = true;
    else if (k == "--inject") {
      const std::string v = val();
      if (v == "flip-byte") a.inject = Inject::kFlipByte;
      else if (v == "drop-write") a.inject = Inject::kDropWrite;
      else return false;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && a.setups > 0;
}

/// Runs every client's closed loop on its own thread until `seconds` pass
/// (or, with `steps` > 0, for exactly `steps` steps per thread). Returns
/// the phase's actual length in seconds, up to the return of the last op
/// that started in it. Rethrows the first client exception.
double run_phase(Workload& w, std::vector<Client>& clients, Mode mode,
                 double seconds, std::uint64_t steps) {
  std::atomic<bool> stop{false};
  std::mutex err_mu;
  std::exception_ptr err;
  const std::int64_t start = now_ns();
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    client.mode = mode;
    threads.emplace_back([&, c = &client] {
      try {
        for (std::uint64_t n = 0;
             !stop.load(std::memory_order_relaxed) && (steps == 0 || n < steps);
             ++n)
          w.step(*c);
      } catch (...) {
        const std::lock_guard lock(err_mu);
        if (!err) err = std::current_exception();
        stop.store(true);
      }
    });
  }
  if (steps == 0) {
    const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < end && !stop.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true);
  }
  for (auto& t : threads) t.join();
  if (err) std::rethrow_exception(err);
  return static_cast<double>(now_ns() - start) / 1e9;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double median_ns(const std::vector<std::int64_t>& v) {
  return percentile(v, 50);
}

struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t stream_hash = 0, stream_ops = 0;
  std::vector<Metric> model;  ///< modelled percentiles (determinism check)
  std::vector<double> setup_s;
  Counters per_op;            ///< counter deltas of the measured phase
  std::uint64_t ops = 0;
};

struct DmaSnap {
  std::array<std::uint64_t, 4> ops{};
  std::uint64_t bytes = 0;
};
DmaSnap dma_snap(const dpc::pcie::DmaCounters& c) {
  using dpc::pcie::DmaClass;
  return {{c.ops(DmaClass::kDescriptor), c.ops(DmaClass::kData),
           c.ops(DmaClass::kDoorbell), c.ops(DmaClass::kAtomic)},
          c.total_bytes()};
}

/// One set-up: construction, preload and warm-up. Returns its seconds.
double setup_once(const Args& a, std::unique_ptr<Workload>& w,
                  std::vector<Client>& clients) {
  clients.clear();
  w.reset();
  const std::int64_t t0 = now_ns();
  w = make_workload(a.workload, a.seed);
  if (!w) throw std::invalid_argument("unknown workload " + a.workload);
  for (int t = 0; t < w->threads(); ++t)
    clients.emplace_back(a.workload, t, a.seed, a.inject);
  run_phase(*w, clients, Mode::kWarmup, 0,
            static_cast<std::uint64_t>(w->warmup_steps()));
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Times one set-up in a child process, so that only the measured instance
/// counts toward this process's peak RSS. Call while single-threaded.
double setup_in_child(const Args& a) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    double s = -1;
    try {
      std::unique_ptr<Workload> w;
      std::vector<Client> clients;
      s = setup_once(a, w, clients);
    } catch (const std::exception& e) {
      std::cerr << "set-up in child: " << e.what() << "\n";
    }
    const bool sent = write(fds[1], &s, sizeof s) == sizeof s;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double s = -1;
  const bool got = read(fds[0], &s, sizeof s) == sizeof s;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || s < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up failed in a child process");
  return s;
}

RunResult run_once(const Args& a) {
  // ---- set-up, repeated: the median is setup_s. All but the last run in
  // child processes; the last instance is the one measured.
  std::vector<double> setup_s;
  for (int i = 1; i < a.setups; ++i) setup_s.push_back(setup_in_child(a));
  std::unique_ptr<Workload> w;
  std::vector<Client> clients;
  setup_s.push_back(setup_once(a, w, clients));
  auto& sys = w->sys();

  // ---- measured phase (the untraced phase when tracing).
  for (const auto& h : phase_histograms()) sys.metrics().histogram(h).reset();
  const Counters c0 = snapshot(sys.metrics());
  const DmaSnap d0 = dma_snap(sys.dma_counters());
  const double phase_s = a.trace ? a.seconds / 3 : a.seconds;
  const double measured_s =
      run_phase(*w, clients, Mode::kMeasure, phase_s, a.ops);
  const Counters dc = delta(snapshot(sys.metrics()), c0);
  const DmaSnap d1 = dma_snap(sys.dma_counters());
  std::vector<double> stage_us;  // medians, to the histogram's ~4% bucket
  for (const auto& h : phase_histograms())
    stage_us.push_back(sys.metrics().histogram(h).percentile(50).us());

  // Merged over the client threads.
  Measured all;
  for (const auto& c : clients) {
    const auto& m = c.measured;
    all.wall_ns.insert(all.wall_ns.end(), m.wall_ns.begin(), m.wall_ns.end());
    for (int k = 0; k < kOpClasses; ++k)
      for (const auto& [cost, n] : m.model[k]) all.model[k][cost] += n;
    all.dpu_cost_ns += m.dpu_cost_ns;
    all.dpu_ops += m.dpu_ops;
    all.user_bytes += m.user_bytes;
  }
  std::array<std::uint64_t, kOpClasses> n_cls{};
  for (int k = 0; k < kOpClasses; ++k)
    for (const auto& [cost, n] : all.model[k]) n_cls[k] += n;
  const std::uint64_t n_ops = n_cls[0] + n_cls[1] + n_cls[2] + n_cls[3];

  // ---- traced phase and layer peel.
  double traced_s = 0;
  std::uint64_t traced_ops = 0;
  std::vector<Span> spans;
  Peel peel;
  if (a.trace) {
    traced_s = run_phase(*w, clients, Mode::kTrace, a.seconds / 3, a.ops);
    w->prepare_peel();
    run_phase(*w, clients, Mode::kPeel, a.seconds / 3, a.ops);
    auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    for (auto& c : clients) {
      traced_ops += c.traced_calls;
      append(spans, c.spans);
      const auto& p = c.peel;
      append(peel.core_ns, p.core_ns);
      append(peel.kvfs_ns, p.kvfs_ns);
      append(peel.kv_ns, p.kv_ns);
      peel.ec_encode_ns += p.ec_encode_ns;
      peel.ec_encode_bytes += p.ec_encode_bytes;
      peel.ec_reconstruct_ns += p.ec_reconstruct_ns;
      peel.ec_reconstruct_bytes += p.ec_reconstruct_bytes;
      peel.crc_ns += p.crc_ns;
      peel.crc_bytes += p.crc_bytes;
    }
  }

  // ---- verification with the system quiet.
  if (a.inject == Inject::kDropWrite) w->drop_last_write();
  w->verify();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double stored_per_user = w->stored_bytes_per_user_byte();
  const std::uint64_t kv_bytes = sys.kv_store().bytes_stored();

  RunResult r;
  r.setup_s = setup_s;
  for (const auto& c : clients) {
    r.attempted += c.attempted;
    r.failed += c.failed;
    r.stream_hash = r.stream_hash * 0x100000001b3ull ^ c.stream_hash;
    r.stream_ops += c.stream_ops;
  }

  // ---- per-class modelled percentiles, exact over the measured ops.
  for (int k = 0; k < kOpClasses; ++k) {
    const std::string cls = class_name(static_cast<OpClass>(k));
    for (const double p : {50.0, 99.0}) {
      r.model.push_back(Metric{"model_" + cls + "_p" +
                                   std::to_string(static_cast<int>(p)) + "_us",
                               percentile(all.model[k], p) / 1e3, "sim_us",
                               n_cls[k]});
    }
  }
  const double ops = static_cast<double>(n_ops);
  r.ops = n_ops;
  for (const auto& [name, v] : dc) r.per_op[name] = v;

  if (!a.trace) {
    r.metrics.push_back({"ops_per_s", ops / measured_s, "1/s", n_ops});
    r.metrics.push_back(
        {"wall_p50_us", percentile(all.wall_ns, 50) / 1e3, "us", n_ops});
    r.metrics.push_back(
        {"wall_p99_us", percentile(all.wall_ns, 99) / 1e3, "us", n_ops});
    // The fsync p99 is a per-layer metric (see NOTES.md): on the buffered
    // workloads it follows the background flusher's wall-clock progress.
    for (const auto& m : r.model)
      if (m.name != "model_fsync_p99_us") r.metrics.push_back(m);
    r.metrics.push_back({"kv_bytes_per_user_byte", stored_per_user, "B/B", 0});
    r.metrics.push_back({"setup_s", median(setup_s), "s", setup_s.size()});
    r.metrics.push_back(
        {"peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB", 0});
    return r;
  }

  // ---- per-layer metrics (traced run).
  auto d = [&](const char* name) { return static_cast<double>(dc.at(name)); };
  auto per = [&](const char* counter, double den) {
    return ratio(d(counter), den);
  };
  auto hit_ratio = [&](const char* hit, const char* miss) {
    return ratio(d(hit), d(hit) + d(miss));
  };
  auto per_mib = [](std::int64_t ns, std::uint64_t bytes) {
    return ratio(static_cast<double>(ns) / 1e3,
                 static_cast<double>(bytes) / (1 << 20));
  };
  auto& m = r.metrics;
  auto add = [&m](std::string name, double v, const char* unit,
                  std::uint64_t n = 0) {
    m.push_back({std::move(name), v, unit, n});
  };
  const double writes = static_cast<double>(n_cls[1]);
  const double metas = static_cast<double>(n_cls[2]);
  const double fsyncs = static_cast<double>(n_cls[3]);
  const double hits = d("cache.host/read_hits");
  const double misses = d("cache.host/read_misses");
  const double dfs_ops = d("dfs.client/reads") + d("dfs.client/writes") +
                         d("dfs.client/meta_ops");
  std::vector<std::int64_t> hit_wall, miss_wall;
  for (const auto& s : spans) {
    if (s.cls == OpClass::kRead)
      (s.cache_hit ? hit_wall : miss_wall).push_back(s.end_ns - s.start_ns);
  }
  const double core_us = median_ns(peel.core_ns) / 1e3;
  const double kvfs_us = median_ns(peel.kvfs_ns) / 1e3;
  const double kv_us = median_ns(peel.kv_ns) / 1e3;
  const double untraced_ops_s = ops / measured_s;
  const double traced_ops_s = ratio(static_cast<double>(traced_ops), traced_s);

  const double dispatch_us =
      per("dispatch/backend_ns", d("dispatch/ops")) / 1e3;
  add("core.dispatch_model_us_per_op", dispatch_us, "sim_us");
  add("core.transport_model_us_per_op",
      all.dpu_ops == 0 ? 0
                       : all.dpu_cost_ns / static_cast<double>(all.dpu_ops) /
                                 1e3 -
                             dispatch_us,
      "sim_us", all.dpu_ops);
  add("core.retries_per_op", per("retry/attempts", ops), "1/op");
  add("core.self_wall_us", peel.kvfs_ns.empty() ? 0 : core_us - kvfs_us, "us",
      peel.core_ns.size());
  add("nvme.sq_doorbells_per_op", per("nvme.ini/sq_doorbells", ops), "1/op");
  add("nvme.cq_doorbells_per_op", per("nvme.ini/cq_doorbells", ops), "1/op");
  add("nvme.queue_full_waits_per_op", per("nvme.ini/queue_full_waits", ops),
      "1/op");
  const char* stages[] = {"submit_to_fetch", "fetch_to_dispatch",
                          "dispatch_to_backend", "backend_to_cqe",
                          "cqe_to_reap"};
  for (int i = 0; i < 5; ++i)
    add(std::string("nvme.") + stages[i] + "_us", stage_us[i], "us");
  const char* dma_names[] = {"descriptor", "data", "doorbell", "atomic"};
  for (int i = 0; i < 4; ++i)
    add(std::string("pcie.dma_ops_per_op.") + dma_names[i],
        ratio(static_cast<double>(d1.ops[i] - d0.ops[i]), ops), "1/op");
  add("pcie.link_bytes_per_user_byte",
      ratio(static_cast<double>(d1.bytes - d0.bytes),
            static_cast<double>(all.user_bytes)),
      "B/B");
  add("cache.read_hit_ratio", ratio(hits, hits + misses), "ratio");
  add("cache.lockfree_hit_share", per("cache.host/lockfree_hits", hits),
      "ratio");
  add("cache.seqlock_retries_per_hit", per("cache.host/seqlock_retries", hits),
      "1/op");
  add("cache.hit_wall_us", median_ns(hit_wall) / 1e3, "us", hit_wall.size());
  add("cache.miss_wall_us", median_ns(miss_wall) / 1e3, "us",
      miss_wall.size());
  add("cache.write_stalls_per_write", per("cache.host/write_stalls", writes),
      "1/op");
  add("cache.pages_flushed_per_write", per("cache.ctl/pages_flushed", writes),
      "1/op");
  add("cache.pages_evicted_per_op", per("cache.ctl/pages_evicted", ops),
      "1/op");
  add("cache.pages_prefetched_per_miss",
      per("cache.ctl/pages_prefetched", misses), "1/op");
  add("cache.flush_pass_model_us", stage_us[5], "sim_us");
  add("kvfs.dentry_hit_ratio",
      hit_ratio("kvfs/dentry_hits", "kvfs/dentry_misses"), "ratio");
  add("kvfs.attr_hit_ratio", hit_ratio("kvfs/attr_hits", "kvfs/attr_misses"),
      "ratio");
  add("kvfs.journal_appends_per_meta_op", per("kvfs.journal/appends", metas),
      "1/op");
  add("kvfs.journal_wal_appends_per_meta_op",
      per("kvfs.journal/wal_appends", metas), "1/op");
  add("kvfs.big_inplace_writes_per_write",
      per("kvfs/big_inplace_writes", writes), "1/op");
  add("kvfs.small_rewrites_per_write", per("kvfs/small_rewrites", writes),
      "1/op");
  add("kvfs.self_wall_us", peel.kv_ns.empty() ? 0 : kvfs_us - kv_us, "us",
      peel.kvfs_ns.size());
  add("kv.self_wall_us", kv_us, "us", peel.kv_ns.size());
  add("kv.bytes_stored", static_cast<double>(kv_bytes), "B");
  m.push_back(r.model[7]);  // model_fsync_p99_us
  add("nvm.fences_per_fsync", per("nvm.dev/fences", fsyncs), "1/op");
  add("nvm.writes_per_fsync", per("nvm.dev/writes", fsyncs), "1/op");
  add("wal.records_per_fsync", per("wal/appends", fsyncs), "1/op");
  add("wal.fast_ack_ratio",
      hit_ratio("dispatch/wal_fast_acks", "dispatch/wal_fallbacks"), "ratio");
  add("wal.checkpoints", d("wal/checkpoints"), "count");
  add("wal.ring_full", d("wal/ring_full"), "count");
  add("dfs.ds_ops_per_op", per("dfs.client/ds_ops", dfs_ops), "1/op");
  add("dfs.mds_ops_per_op", per("dfs.client/mds_ops", dfs_ops), "1/op");
  add("dfs.backend_model_us", stage_us[6], "sim_us");
  add("ec.encode_wall_us_per_mib",
      per_mib(peel.ec_encode_ns, peel.ec_encode_bytes), "us/MiB");
  add("ec.reconstruct_wall_us_per_mib",
      per_mib(peel.ec_reconstruct_ns, peel.ec_reconstruct_bytes), "us/MiB");
  add("ec.crc32c_wall_us_per_mib", per_mib(peel.crc_ns, peel.crc_bytes),
      "us/MiB");
  add("ec.degraded_reads", d("ec/degraded_reads"), "count");
  add("trace.ops_per_s_untraced", untraced_ops_s, "1/s", r.ops);
  add("trace.ops_per_s_traced", traced_ops_s, "1/s", traced_ops);
  add("trace.overhead_pct",
      untraced_ops_s == 0 ? 0 : (1 - traced_ops_s / untraced_ops_s) * 100,
      "%");
  add("error_rate",
      ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
      "ratio");
  return r;
}

void print_summary(const Args& a, const RunResult& r) {
  std::cerr << "workload " << a.workload << " seed " << a.seed << " trace "
            << a.trace << ": " << r.ops << " measured ops, op-stream hash "
            << std::hex << r.stream_hash << std::dec << " over " << r.stream_ops
            << " ops\n";
  if (!a.trace) {
    std::cerr << " set-ups (s):";
    for (const double v : r.setup_s) std::cerr << " " << v;
    std::cerr << "\n modelled (sim_us, exact over the measured ops):\n";
    print_table(std::cerr, r.model);
  }
  std::cerr << " metrics:\n";
  print_table(std::cerr, r.metrics);
}

/// Runs the workload twice with one seed and a fixed op count, and reports
/// which quantities repeat exactly.
int check_determinism(Args a) {
  if (a.ops == 0) a.ops = 3000;
  a.trace = false;
  const RunResult x = run_once(a);
  const RunResult y = run_once(a);
  const bool same_stream =
      x.stream_hash == y.stream_hash && x.stream_ops == y.stream_ops;
  std::cout << "op-stream hash: " << std::hex << x.stream_hash << " / "
            << y.stream_hash << std::dec
            << (same_stream ? "  identical" : "  DIFFERS") << "\n";
  for (std::size_t i = 0; i < x.model.size(); ++i) {
    const bool same = x.model[i].value == y.model[i].value;
    std::cout << x.model[i].name << ": " << x.model[i].value << " / "
              << y.model[i].value << (same ? "  identical" : "  DIFFERS")
              << "\n";
  }
  for (const auto& [name, v] : x.per_op) {
    const double px = ratio(static_cast<double>(v), static_cast<double>(x.ops));
    const double py = ratio(static_cast<double>(y.per_op.at(name)),
                            static_cast<double>(y.ops));
    std::cout << "per-op " << name << ": " << px << " / " << py
              << (px == py ? "  identical" : "  DIFFERS") << "\n";
  }
  return same_stream ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  try {
    if (!parse(argc, argv, a)) {
      std::cerr << "usage: dpc_perfbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 [--ops N] [--setups N] "
                   "[--inject flip-byte|drop-write] [--check-determinism]\n";
      return 2;
    }
    if (a.check_determinism) return check_determinism(a);
    const RunResult r = run_once(a);
    print_summary(a, r);
    print_json(std::cout, true, r.attempted, r.failed, r.metrics);
    return 0;
  } catch (const Mismatch& e) {
    std::cerr << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
