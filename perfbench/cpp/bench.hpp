// Shared types of the DPC benchmark: op classes, the seeded input
// generator, the block-content oracle, per-op samples, spans, and the
// per-thread Client that times every call into DpcSystem.
//
// The benchmark uses only the program's public API. Everything it measures is
// taken from its own per-op samples (Io.cost for modelled time,
// steady_clock around each call for wall-clock time) or from deltas of the
// program's registry counters.
#pragma once

#include <array>
#include <chrono>
#include <map>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dpc_system.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class OpClass : std::uint8_t { kRead = 0, kWrite, kMeta, kFsync };
inline constexpr int kOpClasses = 4;
const char* class_name(OpClass c);

/// Oracle self-test injections: corrupt the benchmark's own expectation,
/// never the program, and the run must fail.
enum class Inject : std::uint8_t { kNone, kFlipByte, kDropWrite };

/// splitmix64: the benchmark's own generator, so the op stream depends on
/// the seed alone and not on any generator inside the program.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// True with probability `percent`/100.
  bool percent(unsigned percent) { return below(100) < percent; }

 private:
  std::uint64_t s_;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Deterministic content for one block version: every 8-byte word depends
/// on `key` and on its position, so a misplaced or stale block shows.
void fill(std::span<std::byte> dst, std::uint64_t key);

/// The program returned something the shadow copy says is wrong. Never
/// counted as a failed op: it aborts the run.
struct Mismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};
[[noreturn]] void report_mismatch(const std::string& workload, const char* op,
                           const std::string& where,
                           const std::string& detail);

/// Exact distribution of modelled costs (Io.cost in ns -> ops): an op
/// class has only a handful of distinct costs.
using CostCounts = std::map<std::int64_t, std::uint64_t>;

/// What the measured phase records.
struct Measured {
  /// steady_clock time around each measured DpcSystem call.
  std::vector<std::int64_t> wall_ns;
  std::array<CostCounts, kOpClasses> model;
  /// Sum of Io.cost over the ops that reached the DPU, and their count.
  double dpu_cost_ns = 0;
  std::uint64_t dpu_ops = 0;
  std::uint64_t user_bytes = 0;   ///< payload bytes the data ops moved
};

/// One traced span: one DpcSystem call of the traced phase.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  OpClass cls = OpClass::kRead;
  bool cache_hit = false;
};

/// Layer-peel timings: the same input handed to each layer's public API
/// directly, so a layer's self time is its time minus the time of the
/// layer below.
struct Peel {
  std::vector<std::int64_t> core_ns;  ///< DpcSystem call (traced phase)
  std::vector<std::int64_t> kvfs_ns;  ///< Kvfs call, no transport
  std::vector<std::int64_t> kv_ns;    ///< KvStore call of the same size
  std::int64_t ec_encode_ns = 0, ec_reconstruct_ns = 0, crc_ns = 0;
  std::uint64_t ec_encode_bytes = 0, ec_reconstruct_bytes = 0, crc_bytes = 0;
};

enum class Mode : std::uint8_t { kWarmup, kMeasure, kTrace, kPeel };

/// Per-thread client state. Owned by main.cpp; a workload's step() drives
/// it. Not shared between threads.
class Client {
 public:
  Client(std::string workload, int thread, std::uint64_t seed, Inject inject);

  const std::string workload;
  const int thread;
  Rng rng;
  Mode mode = Mode::kWarmup;

  /// Times one call into DpcSystem, records its sample (and its span when
  /// tracing), counts failures, and folds (class, target) into the
  /// op-stream hash.
  template <class F>
  dpc::core::Io call(OpClass cls, std::uint64_t target, F&& f) {
    note_op(cls, target);
    const std::int64_t t0 = now_ns();
    const dpc::core::Io io = f();
    const std::int64_t t1 = now_ns();
    record(cls, io, t0, t1);
    return io;
  }

  /// Compares `got` with the oracle's `want`. Under the flip-byte
  /// injection the first measured comparison of thread 0 flips one byte
  /// of `want` first.
  void expect(std::span<const std::byte> got, std::span<std::byte> want,
              const char* op, const std::string& where);
  /// Reports a mismatch of a scalar the oracle predicts (size, ino).
  void expect_eq(std::uint64_t got, std::uint64_t want, const char* op,
                 const std::string& where, const char* what);

  bool peeling() const { return mode == Mode::kPeel; }
  /// Layer peel of the call just made (which reached the DPU and can be
  /// repeated without changing state). The traced phase keeps the call's
  /// own wall time; the peel phase times `kvfs`, the same op against the
  /// Kvfs API, and runs `kv`, which times the KvStore equivalent. Kept in
  /// separate phases because the peel calls leave the DPU workers idle,
  /// and an idle worker backs off, which would slow the next call.
  template <class KvfsFn, class KvFn>
  void layer_peel(KvfsFn&& kvfs, KvFn&& kv) {
    if (mode == Mode::kTrace) {
      peel.core_ns.push_back(last_wall_ns_);
    } else if (mode == Mode::kPeel) {
      time(peel.kvfs_ns, kvfs);
      kv();
    }
  }
  /// Times `f` and appends the duration to `into` (a layer-peel span).
  template <class F>
  void time(std::vector<std::int64_t>& into, F&& f) {
    into.push_back(time(f));
  }
  template <class F>
  std::int64_t time(F&& f) {
    const std::int64_t t0 = now_ns();
    f();
    return now_ns() - t0;
  }

  Measured measured;
  std::vector<Span> spans;
  std::uint64_t traced_calls = 0;
  Peel peel;
  /// Every DpcSystem call this thread made, warm-up included, and how
  /// many of them returned an error.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// FNV-1a over (class, target) of every op this thread issued since
  /// the start of the measured phase, and how many ops that covers.
  std::uint64_t stream_hash = 0xcbf29ce484222325ull;
  std::uint64_t stream_ops = 0;

 private:
  void note_op(OpClass cls, std::uint64_t target);
  void record(OpClass cls, const dpc::core::Io& io, std::int64_t t0,
              std::int64_t t1);

  Inject inject_;
  bool flipped_ = false;
  std::int64_t last_wall_ns_ = 0;
};

}  // namespace perfbench
