#include "core/virtual_client.hpp"
#include "virtio/virtio_fs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "dpu/dpu.hpp"
#include "dpu/worker_pool.hpp"
#include "sim/rng.hpp"

namespace dpc {
namespace {

using core::VirtioRawHarness;

VirtioRawHarness::Options small_opts() {
  VirtioRawHarness::Options o;
  o.queue_size = 64;
  o.request_slots = 8;
  o.max_io = 64 * 1024;
  return o;
}

TEST(VirtioFs, WriteEcho) {
  VirtioRawHarness h(small_opts());
  std::vector<std::byte> data(8192, std::byte{0x11});
  EXPECT_TRUE(h.do_write(data));
}

TEST(VirtioFs, ReadReturnsPattern) {
  VirtioRawHarness h(small_opts());
  std::vector<std::byte> dst(8192);
  ASSERT_TRUE(h.do_read(dst));
  for (std::size_t i = 0; i < dst.size(); ++i)
    ASSERT_EQ(dst[i], static_cast<std::byte>((i * 131) & 0xFF)) << i;
}

TEST(VirtioFs, EightKWriteCostsExactlyElevenDmas) {
  // The Fig. 2(b) claim: "the number of DMA operations involved in
  // virtio-fs reaches up to unbearable 11" for an 8 KB write:
  //   ① avail idx, ② ring entry, ③–⑥ four descriptors, ⑦ command
  //   (in-header + write-in, contiguous), ⑧ data, ⑨ response,
  //   ⑩ used elem, ⑪ used idx.
  VirtioRawHarness h(small_opts());
  std::vector<std::byte> data(8192, std::byte{1});
  h.counters().reset();
  ASSERT_TRUE(h.do_write(data));
  const auto descriptor = h.counters().ops(pcie::DmaClass::kDescriptor);
  const auto payload = h.counters().ops(pcie::DmaClass::kData);
  EXPECT_EQ(descriptor + payload, 11u)
      << "descriptor=" << descriptor << " data=" << payload;
  EXPECT_EQ(payload, 3u);     // command read, data read, response write
  EXPECT_EQ(descriptor, 8u);  // idx, ring, 4 desc, used elem, used idx
}

TEST(VirtioFs, EightKReadAlsoElevenDmas) {
  VirtioRawHarness h(small_opts());
  std::vector<std::byte> dst(8192);
  h.counters().reset();
  ASSERT_TRUE(h.do_read(dst));
  const auto total = h.counters().ops(pcie::DmaClass::kDescriptor) +
                     h.counters().ops(pcie::DmaClass::kData);
  EXPECT_EQ(total, 11u);
}

TEST(VirtioFs, NvmeFsMovesFarFewerDmasThanVirtio) {
  // Cross-check the motivating ratio (2–3× more DMA ops in virtio-fs).
  VirtioRawHarness v(small_opts());
  core::NvmeRawHarness::Options no;
  no.queues = 1;
  no.depth = 8;
  no.max_io = 64 * 1024;
  core::NvmeRawHarness n(no);

  std::vector<std::byte> data(8192, std::byte{1});
  v.counters().reset();
  ASSERT_TRUE(v.do_write(data));
  n.counters().reset();
  ASSERT_TRUE(n.do_write(0, data));

  const auto virtio_ops = v.counters().ops(pcie::DmaClass::kDescriptor) +
                          v.counters().ops(pcie::DmaClass::kData);
  const auto nvme_ops = n.counters().ops(pcie::DmaClass::kDescriptor) +
                        n.counters().ops(pcie::DmaClass::kData);
  EXPECT_EQ(virtio_ops, 11u);
  EXPECT_EQ(nvme_ops, 4u);
  EXPECT_GE(static_cast<double>(virtio_ops) / nvme_ops, 2.0);
}

TEST(VirtioFs, UnknownOpcodeReturnsEnosys) {
  VirtioRawHarness h(small_opts());
  auto& guest = h.guest();
  const auto sub = h.guest().submit(virtio::FuseOpcode::kDestroy, 1, {}, {}, 0);
  virtio::FuseReplyView reply;
  while (!guest.try_wait(sub.ticket, &reply)) h.pump();
  EXPECT_EQ(reply.error, -38);
  guest.release(sub.ticket);
}

TEST(VirtioFs, SlotsRecycleUnderSustainedLoad) {
  VirtioRawHarness h(small_opts());  // only 8 slots
  std::vector<std::byte> data(4096, std::byte{5});
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(h.do_write(data)) << i;
}

TEST(VirtioFs, ConcurrentGuestsSingleHal) {
  VirtioRawHarness::Options o;
  o.queue_size = 256;
  o.request_slots = 32;
  o.max_io = 16 * 1024;
  VirtioRawHarness h(o);
  constexpr int kThreads = 8;
  constexpr int kOps = 100;
  std::atomic<int> failures{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h, &failures, t] {
      std::vector<std::byte> data(8192, static_cast<std::byte>(t));
      std::vector<std::byte> dst(8192);
      for (int i = 0; i < kOps; ++i) {
        if (!h.do_write(data)) ++failures;
        if (!h.do_read(dst)) ++failures;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ------------------------------------------------- FUSE over one virtqueue
//
// The DPFS baseline's transport with a test-defined FUSE handler in place
// of the harness's echo client: a guest and a DPFS-HAL over one queue,
// built directly on the counting DmaEngine.

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

template <typename T>
std::span<const std::byte> pod_bytes(const T& v) {
  return std::as_bytes(std::span{&v, 1});
}

struct FuseTransport : ::testing::Test {
  using Handler = std::function<virtio::FuseHandlerResult(
      const virtio::FuseInHeader&, std::span<const std::byte>,
      std::span<std::byte>)>;

  static constexpr std::uint32_t kMaxData = 64 * 1024;

  FuseTransport()
      : host("host-fuse", 4 << 20),
        halloc(host),
        dma(host, dpu_dev.bar()),
        layout(64, halloc, dpu_dev.bar_alloc()),
        guest(dma, layout, halloc, {64, 8, kMaxData}),
        hal(dma, layout,
            [this](const virtio::FuseInHeader& hdr,
                   std::span<const std::byte> payload,
                   std::span<std::byte> reply) {
              return on_request(hdr, payload, reply);
            },
            kMaxData) {}

  /// Submits one request, runs the HAL inline until it completes, and
  /// returns the reply with its payload copied out of the slot.
  struct Reply {
    std::int32_t error = 0;
    std::uint64_t unique = 0;
    std::uint64_t ticket_unique = 0;
    std::vector<std::byte> payload;
  };
  Reply roundtrip(virtio::FuseOpcode op, std::uint64_t nodeid,
                  std::span<const std::byte> arg,
                  std::span<const std::byte> data_in,
                  std::uint32_t data_out_cap) {
    const auto sub = guest.submit(op, nodeid, arg, data_in, data_out_cap);
    virtio::FuseReplyView view;
    while (!guest.try_wait(sub.ticket, &view)) hal.process_available();
    Reply r{view.error, view.unique, sub.ticket.unique,
            {view.payload.begin(), view.payload.end()}};
    guest.release(sub.ticket);
    return r;
  }

  std::uint64_t link_ops() {
    return dma.counters().ops(pcie::DmaClass::kDescriptor) +
           dma.counters().ops(pcie::DmaClass::kData);
  }

  pcie::MemoryRegion host;
  pcie::RegionAllocator halloc;
  dpu::Dpu dpu_dev;
  pcie::DmaEngine dma;
  virtio::VirtqueueLayout layout;
  virtio::VirtioFsGuest guest;
  Handler on_request = [](const virtio::FuseInHeader&,
                          std::span<const std::byte>, std::span<std::byte>) {
    return virtio::FuseHandlerResult{};
  };
  virtio::DpfsHal hal;
};

/// A minimal FUSE file server for the HAL: FUSE_WRITE stores bytes per
/// nodeid, FUSE_READ returns them, anything else is ENOSYS. Only the HAL
/// calls it, so it needs no lock of its own.
struct MemFuseServer {
  virtio::FuseHandlerResult operator()(const virtio::FuseInHeader& hdr,
                                       std::span<const std::byte> payload,
                                       std::span<std::byte> reply) {
    in_handler.fetch_add(1);
    max_in_handler = std::max(max_in_handler.load(), in_handler.load());
    virtio::FuseHandlerResult r;
    auto& file = files[hdr.nodeid];
    switch (static_cast<virtio::FuseOpcode>(hdr.opcode)) {
      case virtio::FuseOpcode::kWrite: {
        const auto win = virtio::read_pod<virtio::FuseWriteIn>(payload);
        const auto data = payload.subspan(sizeof(win), win.size);
        if (file.size() < win.offset + win.size)
          file.resize(win.offset + win.size);
        std::copy(data.begin(), data.end(),
                  file.begin() + static_cast<std::ptrdiff_t>(win.offset));
        const virtio::FuseWriteOut out{win.size, 0};
        std::memcpy(reply.data(), &out, sizeof(out));
        r.payload_bytes = sizeof(out);
        break;
      }
      case virtio::FuseOpcode::kRead: {
        const auto rin = virtio::read_pod<virtio::FuseReadIn>(payload);
        const auto end = std::min<std::uint64_t>(file.size(),
                                                 rin.offset + rin.size);
        const auto n = end > rin.offset ? end - rin.offset : 0;
        if (n > 0) std::memcpy(reply.data(), file.data() + rin.offset, n);
        r.payload_bytes = static_cast<std::uint32_t>(n);
        break;
      }
      default:
        r.error = -ENOSYS;
    }
    in_handler.fetch_sub(1);
    return r;
  }

  std::map<std::uint64_t, std::vector<std::byte>> files;
  std::atomic<int> in_handler{0};
  std::atomic<int> max_in_handler{0};
};

/// Guest-side FUSE_WRITE / FUSE_READ that wait for a HAL running elsewhere
/// (they never pump the queue themselves).
bool fuse_write(virtio::VirtioFsGuest& guest, std::uint64_t nodeid,
                std::uint64_t offset, std::span<const std::byte> data) {
  virtio::FuseWriteIn win;
  win.offset = offset;
  win.size = static_cast<std::uint32_t>(data.size());
  const auto sub = guest.submit(virtio::FuseOpcode::kWrite, nodeid,
                                pod_bytes(win), data,
                                sizeof(virtio::FuseWriteOut));
  virtio::FuseReplyView reply;
  while (!guest.try_wait(sub.ticket, &reply)) std::this_thread::yield();
  virtio::FuseWriteOut out{};
  if (reply.payload.size() == sizeof(out))
    std::memcpy(&out, reply.payload.data(), sizeof(out));
  const bool ok = reply.error == 0 && out.size == data.size();
  guest.release(sub.ticket);
  return ok;
}

bool fuse_read(virtio::VirtioFsGuest& guest, std::uint64_t nodeid,
               std::uint64_t offset, std::span<std::byte> dst) {
  virtio::FuseReadIn rin;
  rin.offset = offset;
  rin.size = static_cast<std::uint32_t>(dst.size());
  const auto sub = guest.submit(virtio::FuseOpcode::kRead, nodeid,
                                pod_bytes(rin), {},
                                static_cast<std::uint32_t>(dst.size()));
  virtio::FuseReplyView reply;
  while (!guest.try_wait(sub.ticket, &reply)) std::this_thread::yield();
  const bool ok = reply.error == 0 && reply.payload.size() == dst.size();
  if (ok) std::memcpy(dst.data(), reply.payload.data(), dst.size());
  guest.release(sub.ticket);
  return ok;
}

TEST_F(FuseTransport, RequestHeaderCarriesOpcodeNodeidAndLength) {
  virtio::FuseInHeader seen;
  std::string name;
  on_request = [&](const virtio::FuseInHeader& hdr,
                   std::span<const std::byte> payload, std::span<std::byte>) {
    seen = hdr;
    name.assign(reinterpret_cast<const char*>(payload.data()),
                payload.size());
    return virtio::FuseHandlerResult{};
  };
  const char arg[] = "file";  // FUSE_LOOKUP's arg: the NUL-terminated name
  const auto r = roundtrip(virtio::FuseOpcode::kLookup, 7,
                           std::as_bytes(std::span{arg}), {}, 0);
  EXPECT_EQ(seen.opcode, static_cast<std::uint32_t>(virtio::FuseOpcode::kLookup));
  EXPECT_EQ(seen.nodeid, 7u);
  EXPECT_EQ(seen.len, sizeof(virtio::FuseInHeader) + sizeof(arg));
  EXPECT_EQ(name, std::string("file", sizeof(arg)));
  EXPECT_EQ(seen.unique, r.ticket_unique);
  EXPECT_EQ(r.unique, r.ticket_unique);
  EXPECT_EQ(r.error, 0);
  EXPECT_TRUE(r.payload.empty());
}

TEST_F(FuseTransport, WriteArgAndDataReachHandlerContiguously) {
  const auto data = random_bytes(8192, 1);
  virtio::FuseInHeader seen;
  std::vector<std::byte> request;
  on_request = [&](const virtio::FuseInHeader& hdr,
                   std::span<const std::byte> payload,
                   std::span<std::byte> reply) {
    seen = hdr;
    request.assign(payload.begin(), payload.end());
    const auto win = virtio::read_pod<virtio::FuseWriteIn>(payload);
    const virtio::FuseWriteOut out{win.size, 0};
    std::memcpy(reply.data(), &out, sizeof(out));
    return virtio::FuseHandlerResult{0, sizeof(out)};
  };
  virtio::FuseWriteIn win;
  win.offset = 4096;
  win.size = 8192;
  const auto r = roundtrip(virtio::FuseOpcode::kWrite, 3, pod_bytes(win),
                           data, sizeof(virtio::FuseWriteOut));
  ASSERT_EQ(r.error, 0);
  EXPECT_EQ(seen.len, sizeof(virtio::FuseInHeader) + sizeof(win) + 8192);
  ASSERT_EQ(request.size(), sizeof(win) + 8192);
  const auto got = virtio::read_pod<virtio::FuseWriteIn>(request);
  EXPECT_EQ(got.offset, 4096u);
  EXPECT_EQ(got.size, 8192u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(),
                         request.begin() + sizeof(win)));
  ASSERT_EQ(r.payload.size(), sizeof(virtio::FuseWriteOut));
  EXPECT_EQ(virtio::read_pod<virtio::FuseWriteOut>(r.payload).size, 8192u);
}

TEST_F(FuseTransport, HandlerErrnoReachesGuest) {
  on_request = [](const virtio::FuseInHeader& hdr, std::span<const std::byte>,
                  std::span<std::byte>) {
    return virtio::FuseHandlerResult{-static_cast<std::int32_t>(hdr.nodeid),
                                     0};
  };
  for (const int err : {ENOENT, EEXIST, ENOTDIR, ENOSPC}) {
    const auto r = roundtrip(virtio::FuseOpcode::kGetattr,
                             static_cast<std::uint64_t>(err), {}, {}, 48);
    EXPECT_EQ(r.error, -err);
    EXPECT_TRUE(r.payload.empty()) << err;
  }
}

TEST_F(FuseTransport, SmallReplyRidesInOutHeaderDescriptor) {
  const auto attr = random_bytes(48, 2);
  std::size_t capacity = 0;
  on_request = [&](const virtio::FuseInHeader&, std::span<const std::byte>,
                   std::span<std::byte> reply) {
    capacity = reply.size();
    std::copy(attr.begin(), attr.end(), reply.begin());
    return virtio::FuseHandlerResult{0, 48};
  };
  const auto r = roundtrip(virtio::FuseOpcode::kGetattr, 1, {}, {}, 48);
  EXPECT_EQ(capacity, 48u);
  EXPECT_EQ(r.payload, attr);
}

TEST_F(FuseTransport, HeaderOnlyRequestCostsEightDmas) {
  // FUSE_GETATTR without an arg and with an inline reply is a 2-descriptor
  // chain: avail idx, ring entry, 2 descriptors, the in-header, the reply,
  // used elem, used idx. The 8 KiB write's 11 adds an arg descriptor, a
  // data descriptor and the data pull.
  dma.counters().reset();
  roundtrip(virtio::FuseOpcode::kGetattr, 1, {}, {}, 48);
  EXPECT_EQ(dma.counters().ops(pcie::DmaClass::kDescriptor), 6u);
  EXPECT_EQ(dma.counters().ops(pcie::DmaClass::kData), 2u);
  EXPECT_EQ(link_ops(), 8u);
}

TEST_F(FuseTransport, LargeReplyLandsInDataOutBuffer) {
  const auto data = random_bytes(kMaxData, 3);
  std::size_t capacity = 0;
  on_request = [&](const virtio::FuseInHeader&,
                   std::span<const std::byte> payload,
                   std::span<std::byte> reply) {
    capacity = reply.size();
    const auto rin = virtio::read_pod<virtio::FuseReadIn>(payload);
    std::memcpy(reply.data(), data.data(), rin.size);
    return virtio::FuseHandlerResult{0, rin.size};
  };
  virtio::FuseReadIn rin;
  rin.size = kMaxData;
  const auto r = roundtrip(virtio::FuseOpcode::kRead, 1, pod_bytes(rin), {},
                           kMaxData);
  EXPECT_EQ(capacity, kMaxData);
  ASSERT_EQ(r.error, 0);
  EXPECT_EQ(r.payload, data);
}

TEST_F(FuseTransport, PipelinedRequestsCompleteInSubmitOrder) {
  std::vector<std::uint64_t> handled;
  on_request = [&](const virtio::FuseInHeader& hdr, std::span<const std::byte>,
                   std::span<std::byte>) {
    handled.push_back(hdr.unique);
    return virtio::FuseHandlerResult{};
  };
  std::vector<virtio::FuseTicket> tickets;
  for (int i = 0; i < 5; ++i)
    tickets.push_back(
        guest.submit(virtio::FuseOpcode::kFlush, 1, {}, {}, 0).ticket);
  for (std::size_t i = 1; i < tickets.size(); ++i)
    EXPECT_GT(tickets[i].unique, tickets[i - 1].unique);

  EXPECT_EQ(hal.process_available().processed, 5);
  ASSERT_EQ(handled.size(), 5u);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(handled[i], tickets[i].unique);
    virtio::FuseReplyView view;
    ASSERT_TRUE(guest.try_wait(tickets[i], &view));
    EXPECT_EQ(view.unique, tickets[i].unique);
    guest.release(tickets[i]);
  }
}

TEST_F(FuseTransport, ProcessAvailableHonoursMax) {
  std::vector<virtio::FuseTicket> tickets;
  for (int i = 0; i < 5; ++i)
    tickets.push_back(
        guest.submit(virtio::FuseOpcode::kFlush, 1, {}, {}, 0).ticket);
  EXPECT_EQ(hal.process_available(2).processed, 2);
  EXPECT_EQ(hal.process_available(2).processed, 2);
  EXPECT_EQ(hal.process_available(2).processed, 1);
  // An empty queue: nothing processed and no modelled link time spent.
  const auto idle = hal.process_available(2);
  EXPECT_EQ(idle.processed, 0);
  EXPECT_EQ(idle.cost.ns, 0);
  for (const auto& t : tickets) {
    ASSERT_TRUE(guest.try_wait(t, nullptr));
    guest.release(t);
  }
}

TEST_F(FuseTransport, HalOnDedicatedThreadServesGuest) {
  // The DPFS-HAL as its own DPU worker thread; the guest only submits and
  // waits for the used ring.
  MemFuseServer server;
  on_request = std::ref(server);
  dpu::WorkerPool hal_thread;
  hal_thread.add_poller([this] { return hal.process_available(64).processed; });
  hal_thread.start(1);

  const auto data = random_bytes(8192, 4);
  ASSERT_TRUE(fuse_write(guest, 9, 0, data));
  std::vector<std::byte> out(8192);
  ASSERT_TRUE(fuse_read(guest, 9, 0, out));
  EXPECT_EQ(out, data);
  hal_thread.stop();
}

TEST_F(FuseTransport, ConcurrentGuestsSerializeBehindOneHalThread) {
  MemFuseServer server;
  on_request = std::ref(server);
  dpu::WorkerPool hal_thread;
  hal_thread.add_poller([this] { return hal.process_available(64).processed; });
  hal_thread.start(1);

  constexpr int kThreads = 6;  // fewer than the 8 request slots
  std::atomic<int> errors{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([this, t, &errors] {
      const auto nodeid = static_cast<std::uint64_t>(100 + t);
      const auto data = random_bytes(8192, static_cast<std::uint64_t>(t));
      std::vector<std::byte> out(8192);
      for (int i = 0; i < 30; ++i) {
        if (!fuse_write(guest, nodeid, 0, data)) ++errors;
        if (!fuse_read(guest, nodeid, 0, out) || out != data) ++errors;
      }
    });
  }
  for (auto& t : ts) t.join();
  hal_thread.stop();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(server.max_in_handler.load(), 1);  // one HAL, one request at a time
  EXPECT_EQ(server.files.size(), static_cast<std::size_t>(kThreads));
}

}  // namespace
}  // namespace dpc
