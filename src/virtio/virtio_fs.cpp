#include "virtio/virtio_fs.hpp"

#include <thread>

namespace dpc::virtio {

namespace {
constexpr std::uint32_t kMaxArg = 64;  // op-arg structs are ≤ 40 bytes
constexpr std::uint64_t page_round(std::uint64_t n) {
  return (n + 4095) / 4096 * 4096;
}
}  // namespace

VirtioFsGuest::VirtioFsGuest(pcie::DmaEngine& dma,
                             const VirtqueueLayout& layout,
                             pcie::RegionAllocator& host_alloc,
                             const VirtioFsConfig& cfg)
    : dma_(&dma), queue_(dma, layout), cfg_(cfg) {
  DPC_CHECK(cfg.request_slots >= 1);
  slots_.resize(cfg.request_slots);
  free_slots_.reserve(cfg.request_slots);
  for (std::uint16_t s = 0; s < cfg.request_slots; ++s) {
    Slot& slot = slots_[s];
    // in_header and the op arg are allocated back-to-back: they form two
    // chain descriptors but one contiguous DMA burst on the device side.
    slot.hdr_off = host_alloc.alloc(sizeof(FuseInHeader) + kMaxArg, 64);
    slot.data_in_off = host_alloc.alloc(page_round(cfg.max_data), 4096);
    slot.out_hdr_off =
        host_alloc.alloc(sizeof(FuseOutHeader) + kInlineReplyMax, 64);
    slot.data_out_off = host_alloc.alloc(page_round(cfg.max_data), 4096);
    free_slots_.push_back(s);
  }
}

VirtioFsGuest::Submitted VirtioFsGuest::submit(
    FuseOpcode op, std::uint64_t nodeid, std::span<const std::byte> arg,
    std::span<const std::byte> data_in, std::uint32_t data_out_cap) {
  DPC_CHECK(arg.size() <= kMaxArg);
  DPC_CHECK(data_in.size() <= cfg_.max_data);
  DPC_CHECK(data_out_cap <= cfg_.max_data);

  sim::UniqueLock lock(mu_);
  while (free_slots_.empty()) {
    lock.unlock();
    std::this_thread::yield();
    lock.lock();
  }
  const std::uint16_t s = free_slots_.back();
  free_slots_.pop_back();
  Slot& slot = slots_[s];
  slot.busy = true;
  slot.done = false;
  slot.head_set = false;
  slot.unique = next_unique_++;

  FuseInHeader hdr;
  hdr.len = static_cast<std::uint32_t>(sizeof(FuseInHeader) + arg.size() +
                                       data_in.size());
  hdr.opcode = static_cast<std::uint32_t>(op);
  hdr.unique = slot.unique;
  hdr.nodeid = nodeid;

  auto& host = dma_->host();
  host.store(slot.hdr_off, hdr);
  if (!arg.empty()) host.write(slot.hdr_off + sizeof(FuseInHeader), arg);
  if (!data_in.empty()) host.write(slot.data_in_off, data_in);

  // The canonical 4-descriptor FUSE chain (Fig. 2(b)): header, arg,
  // data (as present), then the device-writable reply buffers. Small
  // op-specific out structs share the out-header descriptor (as in real
  // FUSE); only read data gets its own device-writable buffer.
  slot.inline_reply = data_out_cap <= kInlineReplyMax;
  std::vector<ChainSegment> chain;
  chain.push_back({slot.hdr_off, sizeof(FuseInHeader), false});
  if (!arg.empty())
    chain.push_back({slot.hdr_off + sizeof(FuseInHeader),
                     static_cast<std::uint32_t>(arg.size()), false});
  if (!data_in.empty())
    chain.push_back({slot.data_in_off,
                     static_cast<std::uint32_t>(data_in.size()), false});
  chain.push_back({slot.out_hdr_off,
                   static_cast<std::uint32_t>(sizeof(FuseOutHeader)) +
                       (slot.inline_reply ? data_out_cap : 0),
                   true});
  if (!slot.inline_reply)
    chain.push_back({slot.data_out_off, data_out_cap, true});

  lock.unlock();
  const auto added = queue_.add_chain(chain);
  lock.lock();
  slot.chain_head = added.head;
  slot.head_set = true;

  return {{s, slot.unique}, added.cost};
}

std::optional<FuseTicket> VirtioFsGuest::poll() {
  const auto used = queue_.poll_used();
  sim::LockGuard lock(mu_);
  if (used) stashed_used_.push_back(*used);
  for (std::size_t k = 0; k < stashed_used_.size(); ++k) {
    const auto id = static_cast<std::uint16_t>(stashed_used_[k].id);
    for (std::uint16_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      if (slot.busy && !slot.done && slot.head_set && slot.chain_head == id) {
        slot.done = true;
        stashed_used_.erase(stashed_used_.begin() +
                            static_cast<std::ptrdiff_t>(k));
        return FuseTicket{s, slot.unique};
      }
    }
  }
  return std::nullopt;
}

bool VirtioFsGuest::try_wait(const FuseTicket& ticket, FuseReplyView* out) {
  poll();
  sim::LockGuard lock(mu_);
  const Slot& slot = slots_[ticket.slot];
  DPC_CHECK(slot.busy && slot.unique == ticket.unique);
  if (!slot.done) return false;
  const auto hdr = dma_->host().load<FuseOutHeader>(slot.out_hdr_off);
  DPC_CHECK_MSG(hdr.unique == ticket.unique,
                "reply unique mismatch: " << hdr.unique << " vs "
                                          << ticket.unique);
  const std::uint32_t payload =
      hdr.len >= sizeof(FuseOutHeader)
          ? hdr.len - static_cast<std::uint32_t>(sizeof(FuseOutHeader))
          : 0;
  const pcie::MemoryRegion& host = dma_->host();
  const std::uint64_t payload_off = slot.inline_reply
                                        ? slot.out_hdr_off + sizeof(FuseOutHeader)
                                        : slot.data_out_off;
  if (out) *out = {hdr.error, hdr.unique, host.bytes(payload_off, payload)};
  return true;
}

void VirtioFsGuest::release(const FuseTicket& ticket) {
  sim::LockGuard lock(mu_);
  Slot& slot = slots_[ticket.slot];
  DPC_CHECK(slot.busy && slot.done && slot.unique == ticket.unique);
  queue_.recycle(slot.chain_head);
  slot.busy = false;
  slot.done = false;
  free_slots_.push_back(ticket.slot);
}

// ------------------------------------------------------------------ device

DpfsHal::DpfsHal(pcie::DmaEngine& dma, const VirtqueueLayout& layout,
                 FuseHandler handler, std::uint32_t max_data)
    : dma_(&dma),
      device_(dma, layout),
      handler_(std::move(handler)),
      request_buf_(),
      reply_buf_(sizeof(FuseOutHeader) + max_data) {
  DPC_CHECK(handler_ != nullptr);
  request_buf_.reserve(sizeof(FuseInHeader) + 64 + max_data);
}

DpfsHal::ProcessStats DpfsHal::process_available(int max) {
  ProcessStats total;
  while (total.processed < max) {
    sim::Nanos cost{};
    auto chain = device_.pop(&cost);
    total.cost += cost;
    if (!chain) break;

    // ⑦⑧ Pull the request payload (coalesced per contiguous run).
    total.cost += device_.read_payload(*chain, request_buf_);
    const auto hdr = read_pod<FuseInHeader>(request_buf_);
    DPC_CHECK(hdr.len == request_buf_.size());
    const std::span<const std::byte> payload =
        std::span<const std::byte>(request_buf_).subspan(sizeof(FuseInHeader));

    // Writable capacity after the out header.
    std::uint32_t writable = 0;
    for (const auto& seg : chain->segments)
      if (seg.device_writable) writable += seg.len;
    DPC_CHECK(writable >= sizeof(FuseOutHeader));
    const std::uint32_t payload_cap =
        writable - static_cast<std::uint32_t>(sizeof(FuseOutHeader));

    const FuseHandlerResult hres = handler_(
        hdr, payload,
        std::span{reply_buf_.data() + sizeof(FuseOutHeader), payload_cap});
    DPC_CHECK(hres.payload_bytes <= payload_cap);

    FuseOutHeader out;
    out.len = static_cast<std::uint32_t>(sizeof(FuseOutHeader)) +
              hres.payload_bytes;
    out.error = hres.error;
    out.unique = hdr.unique;
    std::memcpy(reply_buf_.data(), &out, sizeof(out));

    // ⑨ Reply, ⑩⑪ publish to the used ring.
    const auto wres = device_.write_payload(
        *chain, std::span<const std::byte>(reply_buf_.data(), out.len));
    total.cost += wres.cost;
    total.cost += device_.push_used(chain->head, wres.written);
    ++total.processed;
  }
  return total;
}

}  // namespace dpc::virtio
