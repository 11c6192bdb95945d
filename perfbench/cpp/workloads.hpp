// The four benchmark workloads. Each owns a live DpcSystem (DPU workers
// running) and an exact shadow copy of what it wrote: every client thread
// owns a disjoint set of blocks, files or directories, so the shadow never
// races with another thread's writes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/dpc_system.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int threads() const = 0;
  /// Closed-loop steps per thread run during set-up, before timing.
  virtual int warmup_steps() const = 0;
  /// One closed-loop step of thread `c.thread`: one op, or one fixed group
  /// of ops (the mail-spool iteration). Checks every output it reads.
  virtual void step(Client& c) = 0;
  /// Untimed: builds the private KV store the layer peel compares against.
  virtual void prepare_peel() {}
  /// Rolls the most recent write of thread 0 out of the shadow (the
  /// drop-write oracle self-test).
  virtual void drop_last_write() = 0;
  /// With the clients stopped: reads everything back against the shadow,
  /// requires fsck to be clean, and (meta-fsync-smallfile) checks that
  /// fsync'd files survive a power loss. Throws Mismatch.
  virtual void verify() = 0;
  /// Backend bytes stored per live user byte, measured after verify().
  virtual double stored_bytes_per_user_byte() = 0;

  dpc::core::DpcSystem& sys() { return *sys_; }

 protected:
  std::unique_ptr<dpc::core::DpcSystem> sys_;
};

/// Builds the system, starts its DPU workers and preloads the working set
/// (set-up; warm-up steps are run by the caller). Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
/// The exact DpcOptions a workload runs with; the only place they are set.
dpc::core::DpcOptions workload_options(const std::string& name);

}  // namespace perfbench
