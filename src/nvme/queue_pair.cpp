#include "nvme/queue_pair.hpp"

namespace dpc::nvme {

namespace {
constexpr std::uint64_t page_round(std::uint64_t n) {
  return (n + kPageSize - 1) / kPageSize * kPageSize;
}
}  // namespace

QueuePair::QueuePair(const QpConfig& cfg, pcie::RegionAllocator& host,
                     pcie::RegionAllocator& dpu)
    : cfg_(cfg) {
  DPC_CHECK(cfg.depth >= 2);
  DPC_CHECK(cfg.depth <= kCidSlotMask + 1);  // slot must fit the wire CID
  DPC_CHECK(cfg.max_write >= 1 && cfg.max_read >= 1);

  sq_base_ = host.alloc(std::uint64_t{cfg_.depth} * sizeof(Sqe), kPageSize);
  cq_base_ = host.alloc(std::uint64_t{cfg_.depth} * sizeof(Cqe), kPageSize);
  sq_db_ = dpu.alloc(sizeof(std::uint32_t), 64);
  cq_db_ = dpu.alloc(sizeof(std::uint32_t), 64);
  gen_base_ = dpu.alloc(std::uint64_t{cfg_.depth} * sizeof(std::uint32_t), 64);

  // +kPayloadCrcBytes: a full-size payload still has room for the CRC32C
  // trailer the integrity envelope appends inside the same data DMA.
  wbuf_cap_ = static_cast<std::uint32_t>(
      page_round(cfg_.max_write + kPayloadCrcBytes));
  rbuf_cap_ = static_cast<std::uint32_t>(
      page_round(cfg_.max_read + kPayloadCrcBytes));
  // Slot: [write buf | read buf | write PRP list page | read PRP list page]
  slot_stride_ = std::uint64_t{wbuf_cap_} + rbuf_cap_ + 2 * kPageSize;
  slots_base_ = host.alloc(slot_stride_ * cfg_.depth, kPageSize);
}

std::uint64_t QueuePair::sqe_off(std::uint16_t slot) const {
  DPC_CHECK(slot < cfg_.depth);
  return sq_base_ + std::uint64_t{slot} * sizeof(Sqe);
}

std::uint64_t QueuePair::cqe_off(std::uint16_t slot) const {
  DPC_CHECK(slot < cfg_.depth);
  return cq_base_ + std::uint64_t{slot} * sizeof(Cqe);
}

std::uint64_t QueuePair::slot_gen_off(std::uint16_t slot) const {
  DPC_CHECK(slot < cfg_.depth);
  return gen_base_ + std::uint64_t{slot} * sizeof(std::uint32_t);
}

std::uint64_t QueuePair::write_buf_off(std::uint16_t cid) const {
  DPC_CHECK(cid < cfg_.depth);
  return slots_base_ + std::uint64_t{cid} * slot_stride_;
}

std::uint64_t QueuePair::read_buf_off(std::uint16_t cid) const {
  return write_buf_off(cid) + wbuf_cap_;
}

std::uint64_t QueuePair::write_prp_list_off(std::uint16_t cid) const {
  return read_buf_off(cid) + rbuf_cap_;
}

std::uint64_t QueuePair::read_prp_list_off(std::uint16_t cid) const {
  return write_prp_list_off(cid) + kPageSize;
}

std::uint32_t QueuePair::pages_for(std::uint32_t len) {
  return (len + kPageSize - 1) / kPageSize;
}

}  // namespace dpc::nvme
