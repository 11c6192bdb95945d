#include "nvme/spec.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace dpc::nvme {
namespace {

TEST(NvmeSpec, OpcodeBitLayoutMatchesPaper) {
  // §3.2: opcode 0xA3 = vendor bit (1b) | function 01000b | bidir 11b.
  NvmeFsCmd cmd;
  const Sqe sqe = encode_nvme_fs(cmd);
  const std::uint8_t opc = opcode_of(sqe);
  EXPECT_EQ(opc, 0xA3);
  EXPECT_EQ(opc & 0x3, 0x3);          // bits [1:0] = 11b (bidirectional)
  EXPECT_EQ((opc >> 2) & 0x1F, 0x8);  // bits [6:2] = 01000b
  EXPECT_EQ(opc >> 7, 1);             // bit 7 = vendor
}

TEST(NvmeSpec, DispatchBitIsDw0Bit10) {
  NvmeFsCmd cmd;
  cmd.target = DispatchTarget::kDistributed;
  const Sqe sqe = encode_nvme_fs(cmd);
  EXPECT_TRUE(sqe.dw0 & (1u << 10));
  cmd.target = DispatchTarget::kStandalone;
  EXPECT_FALSE(encode_nvme_fs(cmd).dw0 & (1u << 10));
}

TEST(NvmeSpec, PsdtBitsAre14And15) {
  NvmeFsCmd cmd;
  cmd.write_psdt = Psdt::kSgl;
  EXPECT_TRUE(encode_nvme_fs(cmd).dw0 & (1u << 14));
  cmd.write_psdt = Psdt::kPrp;
  cmd.read_psdt = Psdt::kSgl;
  EXPECT_TRUE(encode_nvme_fs(cmd).dw0 & (1u << 15));
  // Default is PRP on both (paper: "we use PRP as the default structure").
  NvmeFsCmd def;
  EXPECT_FALSE(encode_nvme_fs(def).dw0 & (3u << 14));
}

TEST(NvmeSpec, HeaderLensPackIntoDw13) {
  NvmeFsCmd cmd;
  cmd.write_hdr_len = 0x1234;
  cmd.read_hdr_len = 0xBEEF;
  const Sqe sqe = encode_nvme_fs(cmd);
  EXPECT_EQ(sqe.dw13 & 0xFFFF, 0x1234u);   // WH_len low
  EXPECT_EQ(sqe.dw13 >> 16, 0xBEEFu);      // RH_len high
}

TEST(NvmeSpec, DecodeRejectsForeignOpcode) {
  Sqe sqe;
  sqe.dw0 = 0x01;  // normal NVMe write opcode
  EXPECT_FALSE(is_nvme_fs(sqe));
  EXPECT_THROW(decode_nvme_fs(sqe), dpc::CheckFailure);
}

TEST(NvmeSpec, CqePhaseAndStatus) {
  const Cqe cqe = make_cqe(42, Status::kFsError, true, 1234, 7, 3);
  EXPECT_EQ(cqe.cid, 42);
  EXPECT_TRUE(phase_of(cqe));
  EXPECT_EQ(status_of(cqe), Status::kFsError);
  EXPECT_EQ(cqe.result, 1234u);
  EXPECT_EQ(cqe.sq_head, 7);
  EXPECT_EQ(cqe.sq_id, 3);
  const Cqe cqe2 = make_cqe(1, Status::kSuccess, false, 0, 0, 0);
  EXPECT_FALSE(phase_of(cqe2));
}

TEST(NvmeSpec, ErrorStatusesRoundTripThroughCqe) {
  // The failure model's two transient statuses survive encode/decode.
  const Cqe a = make_cqe(7, Status::kDataTransferError, true, 0, 0, 0);
  EXPECT_EQ(status_of(a), Status::kDataTransferError);
  const Cqe b = make_cqe(8, Status::kAbortedByRequest, true, 0, 0, 0);
  EXPECT_EQ(status_of(b), Status::kAbortedByRequest);
}

TEST(NvmeSpec, TenantPacksIntoDw10TopByte) {
  // DW10[31:24] carries the tenant id; Write_len keeps the low 24 bits
  // exactly — neither field bleeds into the other.
  NvmeFsCmd cmd;
  cmd.inline_op = InlineOp::kWrite;
  cmd.tenant = 0xA5;
  cmd.write_len = kMaxWriteLen;  // all 24 payload bits set
  const Sqe sqe = encode_nvme_fs(cmd);
  EXPECT_EQ(sqe.write_len >> 24, 0xA5u);
  EXPECT_EQ(tenant_of(sqe), 0xA5);
  const NvmeFsCmd back = decode_nvme_fs(sqe);
  EXPECT_EQ(back.tenant, 0xA5);
  EXPECT_EQ(back.write_len, kMaxWriteLen);
  EXPECT_TRUE(is_retryable(Status::kThrottled));
}

TEST(NvmeSpec, RetryableStatusClassification) {
  // Transient transport faults and host-initiated aborts are retryable;
  // success, FS-level errors, and malformed-command rejections are not.
  EXPECT_TRUE(is_retryable(Status::kDataTransferError));
  EXPECT_TRUE(is_retryable(Status::kAbortedByRequest));
  EXPECT_FALSE(is_retryable(Status::kSuccess));
  EXPECT_FALSE(is_retryable(Status::kFsError));
  EXPECT_FALSE(is_retryable(Status::kInvalidOpcode));
  EXPECT_FALSE(is_retryable(Status::kInvalidField));
}

using RoundTripParam =
    std::tuple<DispatchTarget, InlineOp, std::uint64_t, std::uint64_t>;

class NvmeFsRoundTrip : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(NvmeFsRoundTrip, EncodeDecodeIdentity) {
  const auto [target, op, inode, offset] = GetParam();
  NvmeFsCmd cmd;
  cmd.target = target;
  cmd.inline_op = op;
  cmd.cid = 0x7F1;
  cmd.inode = inode;
  cmd.offset = offset;
  cmd.prp_write1 = 0x1000;
  cmd.prp_write2 = 0x2000;
  cmd.prp_read1 = 0x3000;
  cmd.prp_read2 = 0x4000;
  cmd.write_len = 8192;
  cmd.read_len = 4096;
  cmd.write_hdr_len = 48;
  cmd.read_hdr_len = 300;

  const NvmeFsCmd back = decode_nvme_fs(encode_nvme_fs(cmd));
  EXPECT_EQ(back.target, cmd.target);
  EXPECT_EQ(back.inline_op, cmd.inline_op);
  EXPECT_EQ(back.cid, cmd.cid);
  EXPECT_EQ(back.inode, cmd.inode);
  EXPECT_EQ(back.offset, cmd.offset);
  EXPECT_EQ(back.prp_write1, cmd.prp_write1);
  EXPECT_EQ(back.prp_write2, cmd.prp_write2);
  EXPECT_EQ(back.prp_read1, cmd.prp_read1);
  EXPECT_EQ(back.prp_read2, cmd.prp_read2);
  EXPECT_EQ(back.write_len, cmd.write_len);
  EXPECT_EQ(back.read_len, cmd.read_len);
  EXPECT_EQ(back.write_hdr_len, cmd.write_hdr_len);
  EXPECT_EQ(back.read_hdr_len, cmd.read_hdr_len);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NvmeFsRoundTrip,
    ::testing::Combine(
        ::testing::Values(DispatchTarget::kStandalone,
                          DispatchTarget::kDistributed),
        ::testing::Values(InlineOp::kNone, InlineOp::kRead, InlineOp::kWrite,
                          InlineOp::kFsync, InlineOp::kTruncate,
                          InlineOp::kGrow),
        ::testing::Values(0ULL, 1ULL, 0xFFFFFFFFULL, 0x123456789ABCDEFULL),
        ::testing::Values(0ULL, 4096ULL, 0xFFFFFFFF0000ULL)));

}  // namespace
}  // namespace dpc::nvme
