// NVMe queue-pair layout shared by the host (NVME-INI) and DPU (NVME-TGT)
// drivers.
//
// Following the real protocol: the SQ and CQ rings live in *host* memory;
// the DPU fetches SQEs and posts CQEs by DMA. Doorbells are registers in
// DPU BAR space (the DPU MemoryRegion) written by the host via MMIO.
//
// Each command slot (one per cid, `depth` of them) owns:
//   * a write buffer  (host → DPU payload: file header and/or data),
//   * a read buffer   (DPU → host payload),
//   * one PRP list page per direction. The INI always materializes the PRP
//     list so the TGT's buffer-locate step is exactly one DMA — this is the
//     ② "locate the data buffer indicated by the PRP field" operation in
//     the paper's Fig. 4 four-DMA walk.
#pragma once

#include <cstdint>

#include "nvme/spec.hpp"
#include "pcie/memory.hpp"

namespace dpc::nvme {

struct QpConfig {
  std::uint16_t qid = 0;
  std::uint16_t depth = 64;
  /// Max payload bytes per direction per command.
  std::uint32_t max_write = 64 * 1024;
  std::uint32_t max_read = 64 * 1024;
};

/// Pure layout: computed once at "admin" time, then shared read-only by both
/// drivers. All offsets are region-local addresses.
class QueuePair {
 public:
  QueuePair(const QpConfig& cfg, pcie::RegionAllocator& host,
            pcie::RegionAllocator& dpu);

  const QpConfig& config() const { return cfg_; }
  std::uint16_t depth() const { return cfg_.depth; }
  std::uint16_t qid() const { return cfg_.qid; }

  // Ring entries (host region).
  std::uint64_t sqe_off(std::uint16_t slot) const;
  std::uint64_t cqe_off(std::uint16_t slot) const;

  // Doorbell registers (DPU region).
  std::uint64_t sq_tail_db_off() const { return sq_db_; }
  std::uint64_t cq_head_db_off() const { return cq_db_; }
  /// Per-slot fence word (DPU region): the slot's live CID generation,
  /// written by the host only when it abandons the command in the slot.
  /// The TGT skips any command whose generation differs.
  std::uint64_t slot_gen_off(std::uint16_t slot) const;

  // Per-cid command-slot buffers (host region).
  std::uint64_t write_buf_off(std::uint16_t cid) const;
  std::uint64_t read_buf_off(std::uint16_t cid) const;
  std::uint64_t write_prp_list_off(std::uint16_t cid) const;
  std::uint64_t read_prp_list_off(std::uint16_t cid) const;

  /// Number of 4 KB pages covering `len` bytes starting at a page-aligned
  /// buffer.
  static std::uint32_t pages_for(std::uint32_t len);

 private:
  QpConfig cfg_;
  std::uint64_t sq_base_ = 0;
  std::uint64_t cq_base_ = 0;
  std::uint64_t sq_db_ = 0;
  std::uint64_t cq_db_ = 0;
  std::uint64_t gen_base_ = 0;
  std::uint64_t slots_base_ = 0;
  std::uint64_t slot_stride_ = 0;
  std::uint32_t wbuf_cap_ = 0;  // page-rounded write buffer capacity
  std::uint32_t rbuf_cap_ = 0;
};

}  // namespace dpc::nvme
