// virtio-fs transport for the DPFS baseline.
//
// Guest side (VirtioFsGuest): builds the 4-descriptor FUSE chain
//   [in_header][op arg][data?]  →  [out_header][data out?]
// in per-request slots and exposes it over a single virtqueue (the paper:
// "current kernel implementations of DPFS do not support multiple queues").
//
// Device side (DpfsHal): the single DPFS-HAL thread loop — pop the chain,
// pull the request payload, hand it to the registered FUSE handler, push
// the reply, publish the used element. All transfers flow through the
// counting DmaEngine; an 8 KB write costs exactly the 11 DMA operations of
// the paper's Fig. 2(b), which the tests assert.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "virtio/fuse.hpp"
#include "virtio/virtqueue.hpp"
#include "sim/thread_annotations.hpp"

namespace dpc::virtio {

struct VirtioFsConfig {
  std::uint16_t queue_size = 256;
  std::uint16_t request_slots = 32;
  std::uint32_t max_data = 64 * 1024;  ///< per direction, per request
};

/// Reply payloads up to this size share the out-header descriptor.
inline constexpr std::uint32_t kInlineReplyMax = 64;

/// Handle for an in-flight request.
struct FuseTicket {
  std::uint16_t slot = 0;
  std::uint64_t unique = 0;
};

/// A completed reply, viewed in the guest's slot buffers.
struct FuseReplyView {
  std::int32_t error = 0;
  std::uint64_t unique = 0;
  std::span<const std::byte> payload;  ///< bytes after the out header
};

class VirtioFsGuest {
 public:
  VirtioFsGuest(pcie::DmaEngine& dma, const VirtqueueLayout& layout,
                pcie::RegionAllocator& host_alloc, const VirtioFsConfig& cfg);

  /// Submits one FUSE request. `arg` is the op-specific struct bytes,
  /// `data_in` optional payload (writes), `data_out_cap` expected reply
  /// payload bytes (reads / readdir). Blocks (yielding) while all request
  /// slots are busy.
  struct Submitted {
    FuseTicket ticket;
    sim::Nanos cost{};
  };
  Submitted submit(FuseOpcode op, std::uint64_t nodeid,
                   std::span<const std::byte> arg,
                   std::span<const std::byte> data_in,
                   std::uint32_t data_out_cap);

  /// Reaps one completion if available.
  std::optional<FuseTicket> poll();

  /// Non-blocking: reaps at most one used element, then reports whether
  /// `ticket` is complete (filling `out` if so).
  bool try_wait(const FuseTicket& ticket, FuseReplyView* out);

  /// Returns the slot to the pool (invalidates the reply view).
  void release(const FuseTicket& ticket);

 private:
  struct Slot {
    std::uint64_t hdr_off = 0;       // in_header + arg, contiguous
    std::uint64_t data_in_off = 0;   // page-aligned
    std::uint64_t out_hdr_off = 0;
    std::uint64_t data_out_off = 0;  // page-aligned
    std::uint16_t chain_head = 0;
    std::uint64_t unique = 0;
    bool busy = false;
    bool done = false;
    /// Small replies (op-specific out structs ≤ kInlineReplyMax) ride in
    /// the out-header descriptor, as real FUSE lays out [out_header|arg]
    /// contiguously; large replies (read data) use the data_out buffer.
    bool inline_reply = false;
    /// True once chain_head is valid — submit() publishes the chain before
    /// it can re-acquire the lock to record the head, so completions seen
    /// in that window are stashed until the head is known.
    bool head_set = false;
  };

  pcie::DmaEngine* dma_;
  VirtqueueGuest queue_;
  VirtioFsConfig cfg_;

  mutable sim::AnnotatedMutex mu_{"virtio.fs", sim::LockRank::kDriver};
  std::vector<Slot> slots_ GUARDED_BY(mu_);
  std::vector<std::uint16_t> free_slots_ GUARDED_BY(mu_);
  std::vector<VringUsedElem> stashed_used_ GUARDED_BY(mu_);
  std::uint64_t next_unique_ GUARDED_BY(mu_) = 1;
};

/// Result a FUSE handler returns to the HAL.
struct FuseHandlerResult {
  std::int32_t error = 0;
  std::uint32_t payload_bytes = 0;  ///< bytes it produced in `reply_payload`
};

/// Invoked by the HAL per request: header + request payload (arg ⧺ data),
/// fills `reply_payload` (capacity = writable chain bytes − out header).
using FuseHandler = std::function<FuseHandlerResult(
    const FuseInHeader& hdr, std::span<const std::byte> request_payload,
    std::span<std::byte> reply_payload)>;

class DpfsHal {
 public:
  DpfsHal(pcie::DmaEngine& dma, const VirtqueueLayout& layout,
          FuseHandler handler, std::uint32_t max_data = 64 * 1024);

  struct ProcessStats {
    int processed = 0;
    sim::Nanos cost{};
  };
  /// Drains up to `max` pending requests. Single-threaded by construction —
  /// the DPFS limitation the paper calls out.
  ProcessStats process_available(int max = 1 << 30);

 private:
  pcie::DmaEngine* dma_;
  VirtqueueDevice device_;
  FuseHandler handler_;
  std::vector<std::byte> request_buf_;
  std::vector<std::byte> reply_buf_;
};

}  // namespace dpc::virtio
