#include "virtio/virtqueue.hpp"

#include "sim/check.hpp"

namespace dpc::virtio {

VirtqueueLayout::VirtqueueLayout(std::uint16_t size,
                                 pcie::RegionAllocator& host,
                                 pcie::RegionAllocator& dpu)
    : size_(size) {
  DPC_CHECK(size >= 2);
  desc_base_ = host.alloc(std::uint64_t{size} * sizeof(VringDesc), 16);
  // avail: flags u16 + idx u16 + ring[size] u16
  avail_base_ = host.alloc(4 + std::uint64_t{size} * 2, 4);
  // used: flags u16 + idx u16 + ring[size] elems (align elems to 4)
  used_base_ = host.alloc(4 + std::uint64_t{size} * sizeof(VringUsedElem), 4);
  notify_ = dpu.alloc(sizeof(std::uint32_t), 64);
}

std::uint64_t VirtqueueLayout::desc_off(std::uint16_t i) const {
  DPC_CHECK(i < size_);
  return desc_base_ + std::uint64_t{i} * sizeof(VringDesc);
}

std::uint64_t VirtqueueLayout::avail_ring_off(std::uint16_t i) const {
  DPC_CHECK(i < size_);
  return avail_base_ + 4 + std::uint64_t{i} * 2;
}

std::uint64_t VirtqueueLayout::used_ring_off(std::uint16_t i) const {
  DPC_CHECK(i < size_);
  return used_base_ + 4 + std::uint64_t{i} * sizeof(VringUsedElem);
}

// --------------------------------------------------------------- guest side

VirtqueueGuest::VirtqueueGuest(pcie::DmaEngine& dma,
                               const VirtqueueLayout& layout)
    : dma_(&dma), layout_(&layout), chain_len_(layout.size(), 0) {
  free_.reserve(layout.size());
  for (std::uint16_t i = layout.size(); i > 0; --i)
    free_.push_back(static_cast<std::uint16_t>(i - 1));
  // Initialize ring indices.
  auto& host = dma_->host();
  host.store<std::uint16_t>(layout_->avail_idx_off(), 0);
  host.store<std::uint16_t>(layout_->used_idx_off(), 0);
}

VirtqueueGuest::AddResult VirtqueueGuest::add_chain(
    const std::vector<ChainSegment>& segments, bool notify) {
  DPC_CHECK(!segments.empty());
  sim::LockGuard lock(mu_);
  DPC_CHECK_MSG(free_.size() >= segments.size(), "virtqueue out of descriptors");

  auto& host = dma_->host();
  // Build the chain back-to-front so each entry knows its successor.
  std::uint16_t next = 0;
  std::uint16_t head = 0;
  for (std::size_t k = segments.size(); k > 0; --k) {
    const auto& seg = segments[k - 1];
    const std::uint16_t idx = free_.back();
    free_.pop_back();
    VringDesc d;
    d.addr = seg.addr;
    d.len = seg.len;
    d.flags = static_cast<std::uint16_t>(
        (seg.device_writable ? kDescFlagWrite : 0) |
        (k < segments.size() ? kDescFlagNext : 0));
    d.next = next;
    host.store(layout_->desc_off(idx), d);
    next = idx;
    head = idx;
  }
  chain_len_[head] = static_cast<std::uint16_t>(segments.size());

  // Publish in the avail ring, then bump idx (release ordering is provided
  // by the atomic store below).
  const std::uint16_t slot = avail_idx_ % layout_->size();
  host.store<std::uint16_t>(layout_->avail_ring_off(slot), head);
  ++avail_idx_;
  host.atomic_u32(layout_->avail_idx_off() & ~3ULL)
      .store(static_cast<std::uint32_t>(avail_idx_) << 16 |
                 host.load<std::uint16_t>(layout_->avail_flags_off()),
             std::memory_order_release);

  AddResult res;
  res.head = head;
  if (notify) {
    const std::uint32_t kick =
        kicks_.fetch_add(1, std::memory_order_relaxed) + 1;
    res.cost = dma_->doorbell(layout_->notify_off(), kick);
  }
  return res;
}

std::optional<VringUsedElem> VirtqueueGuest::poll_used() {
  sim::LockGuard lock(mu_);
  auto& host = dma_->host();
  const auto used_idx = static_cast<std::uint16_t>(
      host.atomic_u32(layout_->used_idx_off() & ~3ULL)
          .load(std::memory_order_acquire) >>
      16);
  if (used_idx == last_used_) return std::nullopt;
  const std::uint16_t slot = last_used_ % layout_->size();
  const auto elem = host.load<VringUsedElem>(layout_->used_ring_off(slot));
  ++last_used_;
  return elem;
}

void VirtqueueGuest::recycle(std::uint16_t head) {
  sim::LockGuard lock(mu_);
  auto& host = dma_->host();
  std::uint16_t idx = head;
  std::uint16_t remaining = chain_len_[head];
  DPC_CHECK_MSG(remaining > 0, "recycle of unknown chain head " << head);
  chain_len_[head] = 0;
  while (remaining-- > 0) {
    const auto d = host.load<VringDesc>(layout_->desc_off(idx));
    free_.push_back(idx);
    if ((d.flags & kDescFlagNext) == 0) break;
    idx = d.next;
  }
}

std::uint16_t VirtqueueGuest::free_descriptors() const {
  sim::LockGuard lock(mu_);
  return static_cast<std::uint16_t>(free_.size());
}

// -------------------------------------------------------------- device side

VirtqueueDevice::VirtqueueDevice(pcie::DmaEngine& dma,
                                 const VirtqueueLayout& layout)
    : dma_(&dma), layout_(&layout) {}

std::optional<VirtqueueDevice::PoppedChain> VirtqueueDevice::pop(
    sim::Nanos* cost_out) {
  sim::Nanos cost{};
  if (last_avail_ == cached_avail_) {
    // Kick gate: no fresh doorbell and no known-published work → idle,
    // zero host-memory traffic (the device sleeps until kicked).
    const std::uint32_t kicks =
        dma_->dpu().atomic_u32(layout_->notify_off())
            .load(std::memory_order_acquire);
    if (kicks == kicks_seen_) return std::nullopt;
    kicks_seen_ = kicks;
    // ① Read avail->idx from host memory (atomic acquire: it is the
    // guest's publication word for the whole chain).
    const std::uint32_t flags_idx =
        dma_->host()
            .atomic_u32(layout_->avail_idx_off() & ~3ULL)
            .load(std::memory_order_acquire);
    cached_avail_ = static_cast<std::uint16_t>(flags_idx >> 16);
    cost += dma_->note_transaction(pcie::DmaClass::kDescriptor,
                                   sizeof(std::uint16_t));
    if (cached_avail_ == last_avail_) {
      if (cost_out) *cost_out += cost;
      return std::nullopt;
    }
  }

  PoppedChain chain;
  // ② Read the ring entry that names the chain head.
  std::uint16_t head = 0;
  const std::uint16_t slot = last_avail_ % layout_->size();
  cost += dma_->read_host(layout_->avail_ring_off(slot),
                          std::as_writable_bytes(std::span{&head, 1}),
                          pcie::DmaClass::kDescriptor);
  ++last_avail_;
  chain.head = head;

  // ③… Walk the descriptor chain, one DMA per entry ("the thread starts to
  // read the entries of the data buffer chain one by one").
  std::uint16_t idx = head;
  for (;;) {
    VringDesc d;
    cost += dma_->read_host(layout_->desc_off(idx),
                            std::as_writable_bytes(std::span{&d, 1}),
                            pcie::DmaClass::kDescriptor);
    chain.segments.push_back(
        {d.addr, d.len, (d.flags & kDescFlagWrite) != 0});
    if ((d.flags & kDescFlagNext) == 0) break;
    idx = d.next;
    DPC_CHECK_MSG(chain.segments.size() <= layout_->size(),
                  "descriptor chain loop");
  }

  chain.cost = cost;
  if (cost_out) *cost_out += cost;
  return chain;
}

sim::Nanos VirtqueueDevice::read_payload(const PoppedChain& chain,
                                         std::vector<std::byte>& dst) {
  sim::Nanos cost{};
  dst.clear();
  // Coalesce physically-contiguous readable segments into one transaction —
  // real DMA engines burst contiguous ranges (the FUSE in-header and its
  // argument struct are allocated back-to-back and move as one DMA).
  std::uint64_t run_addr = 0;
  std::uint32_t run_len = 0;
  auto flush = [&] {
    if (run_len == 0) return;
    const std::size_t at = dst.size();
    dst.resize(at + run_len);
    cost += dma_->read_host(run_addr, std::span{dst.data() + at, run_len},
                            pcie::DmaClass::kData);
    run_len = 0;
  };
  for (const auto& seg : chain.segments) {
    if (seg.device_writable) continue;
    if (run_len > 0 && run_addr + run_len == seg.addr) {
      run_len += seg.len;
    } else {
      flush();
      run_addr = seg.addr;
      run_len = seg.len;
    }
  }
  flush();
  return cost;
}

VirtqueueDevice::WriteResult VirtqueueDevice::write_payload(
    const PoppedChain& chain, std::span<const std::byte> src) {
  WriteResult res;
  std::size_t cursor = 0;
  for (const auto& seg : chain.segments) {
    if (!seg.device_writable || cursor >= src.size()) continue;
    const auto n = std::min<std::size_t>(seg.len, src.size() - cursor);
    res.cost += dma_->write_host(seg.addr, src.subspan(cursor, n),
                                 pcie::DmaClass::kData);
    cursor += n;
    res.written += static_cast<std::uint32_t>(n);
  }
  DPC_CHECK_MSG(cursor == src.size(),
                "chain too small: " << src.size() - cursor << " bytes left");
  return res;
}

sim::Nanos VirtqueueDevice::push_used(std::uint16_t head,
                                      std::uint32_t written) {
  sim::Nanos cost{};
  // ⑩ Write the used element…
  const VringUsedElem elem{head, written};
  const std::uint16_t slot = used_idx_ % layout_->size();
  cost += dma_->write_host(layout_->used_ring_off(slot),
                           std::as_bytes(std::span{&elem, 1}),
                           pcie::DmaClass::kDescriptor);
  // ⑪ …then bump used->idx (atomic release: publication word the guest's
  // poll_used() acquires on).
  ++used_idx_;
  auto& host = dma_->host();
  const auto flags =
      host.load<std::uint16_t>(layout_->used_flags_off());
  host.atomic_u32(layout_->used_idx_off() & ~3ULL)
      .store(static_cast<std::uint32_t>(used_idx_) << 16 | flags,
             std::memory_order_release);
  cost += dma_->note_transaction(pcie::DmaClass::kDescriptor,
                                 sizeof(std::uint16_t));
  return cost;
}

}  // namespace dpc::virtio
