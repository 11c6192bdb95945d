// Split virtqueue (descriptor table + avail ring + used ring) as used by
// virtio-fs, laid out in host memory and accessed from the device side
// exclusively through the counting DmaEngine.
//
// This is the data path the paper's Fig. 2(b) dissects: processing one
// request costs the device
//   ① read avail->idx, ② read avail->ring[i], ③…⑥ read each descriptor of
//   the buffer chain, ⑦⑧ read the readable buffer contents, ⑨ write the
//   response, ⑩ write used->ring[j], ⑪ write used->idx
// — 11 DMA operations for an 8 KB FUSE write, which the unit tests assert
// against the DmaEngine counters.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pcie/dma.hpp"
#include "pcie/memory.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"

namespace dpc::virtio {

inline constexpr std::uint16_t kDescFlagNext = 1;
inline constexpr std::uint16_t kDescFlagWrite = 2;  // device-writable

/// On-"wire" descriptor table entry (virtio 1.x split ring).
struct VringDesc {
  std::uint64_t addr = 0;  ///< host-region offset of the buffer
  std::uint32_t len = 0;
  std::uint16_t flags = 0;
  std::uint16_t next = 0;
};
static_assert(sizeof(VringDesc) == 16);

struct VringUsedElem {
  std::uint32_t id = 0;   ///< head descriptor index of the consumed chain
  std::uint32_t len = 0;  ///< bytes written into device-writable buffers
};
static_assert(sizeof(VringUsedElem) == 8);

/// One buffer of a popped chain, device-side view.
struct ChainSegment {
  std::uint64_t addr = 0;
  std::uint32_t len = 0;
  bool device_writable = false;
};

/// Layout of one virtqueue inside the host region, with its notify register
/// in DPU BAR space. Computed once, shared by both sides.
class VirtqueueLayout {
 public:
  VirtqueueLayout(std::uint16_t size, pcie::RegionAllocator& host,
                  pcie::RegionAllocator& dpu);

  std::uint16_t size() const { return size_; }
  std::uint64_t desc_off(std::uint16_t i) const;
  std::uint64_t avail_flags_off() const { return avail_base_; }
  std::uint64_t avail_idx_off() const { return avail_base_ + 2; }
  std::uint64_t avail_ring_off(std::uint16_t i) const;
  std::uint64_t used_flags_off() const { return used_base_; }
  std::uint64_t used_idx_off() const { return used_base_ + 2; }
  std::uint64_t used_ring_off(std::uint16_t i) const;
  std::uint64_t notify_off() const { return notify_; }

 private:
  std::uint16_t size_;
  std::uint64_t desc_base_ = 0;
  std::uint64_t avail_base_ = 0;
  std::uint64_t used_base_ = 0;
  std::uint64_t notify_ = 0;
};

/// Guest (host/driver) side: owns descriptor allocation and the avail ring.
/// All its ring accesses are host-local (no PCIe cost) except the notify
/// doorbell; completions are reaped from the used ring, also host-local.
class VirtqueueGuest {
 public:
  VirtqueueGuest(pcie::DmaEngine& dma, const VirtqueueLayout& layout);

  /// Exposes a chain of buffers to the device. Returns the head descriptor
  /// index, plus the modelled cost (notify doorbell).
  struct AddResult {
    std::uint16_t head = 0;
    sim::Nanos cost{};
  };
  AddResult add_chain(const std::vector<ChainSegment>& segments,
                      bool notify = true);

  /// Reaps one used element if available (head id + written length).
  std::optional<VringUsedElem> poll_used();

  /// Frees the chain rooted at `head` for reuse.
  void recycle(std::uint16_t head);

  std::uint16_t free_descriptors() const;

 private:
  pcie::DmaEngine* dma_;
  const VirtqueueLayout* layout_;

  mutable sim::AnnotatedMutex mu_{"virtio.queue", sim::LockRank::kDriver};
  std::vector<std::uint16_t> free_ GUARDED_BY(mu_);       // free desc idx
  std::vector<std::uint16_t> chain_len_ GUARDED_BY(mu_);  // per-head len
  std::uint16_t avail_idx_ GUARDED_BY(mu_) = 0;  // next avail (mod 2^16)
  std::uint16_t last_used_ GUARDED_BY(mu_) = 0;  // next used to reap
  std::atomic<std::uint32_t> kicks_{0};      // notify doorbell sequence
};

/// Device (DPU) side: every access to the rings or the buffers goes through
/// the DmaEngine and is therefore counted.
class VirtqueueDevice {
 public:
  VirtqueueDevice(pcie::DmaEngine& dma, const VirtqueueLayout& layout);

  struct PoppedChain {
    std::uint16_t head = 0;
    std::vector<ChainSegment> segments;
    sim::Nanos cost{};
  };
  /// Pops the next pending chain, paying DMA ①② plus one descriptor read
  /// per chain element. Returns nullopt if none pending.
  std::optional<PoppedChain> pop(sim::Nanos* cost_out);

  /// Reads the readable segments' contents into `dst`, coalescing
  /// physically-contiguous segments into single DMA transactions.
  sim::Nanos read_payload(const PoppedChain& chain, std::vector<std::byte>& dst);

  /// Writes `src` into the chain's device-writable segments in order (one
  /// DMA per segment touched). Returns bytes written and cost.
  struct WriteResult {
    std::uint32_t written = 0;
    sim::Nanos cost{};
  };
  WriteResult write_payload(const PoppedChain& chain,
                            std::span<const std::byte> src);

  /// Publishes the chain to the used ring: writes used->ring[j] (⑩) and
  /// used->idx (⑪).
  sim::Nanos push_used(std::uint16_t head, std::uint32_t written);

 private:
  pcie::DmaEngine* dma_;
  const VirtqueueLayout* layout_;
  std::uint16_t last_avail_ = 0;
  std::uint16_t used_idx_ = 0;
  /// Kick gating: the avail-idx DMA happens only after a fresh doorbell or
  /// while known-published chains remain — an idle poll costs nothing, as
  /// on real hardware where the device sleeps until kicked.
  std::uint32_t kicks_seen_ = 0;
  std::uint16_t cached_avail_ = 0;
};

}  // namespace dpc::virtio
