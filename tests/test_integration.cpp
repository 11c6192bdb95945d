// Cross-system integration & equivalence tests: the same workloads run
// through DPC (nvme-fs) and the raw KVFS/Ext4like baselines must agree
// byte-for-byte; plus end-to-end checks of the paper-level behaviours
// (prefetching, host CPU locus, the nvme-fs vs virtio-fs DMA ratio).
#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <thread>
#include <utility>

#include "core/dpc_system.hpp"
#include "core/virtual_client.hpp"
#include "hostfs/ext4like.hpp"
#include "kvfs/kvfs.hpp"
#include "sim/rng.hpp"
#include "sim/workload.hpp"

namespace dpc {
namespace {

std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

core::DpcOptions dpc_opts() {
  core::DpcOptions o;
  o.queues = 2;
  o.queue_depth = 8;
  o.max_io = 128 * 1024;
  o.cache_geo = {4096, cache::CacheMode::kWrite, 128, 16};
  return o;
}

TEST(Integration, DpcAndKvfsAgreeOnWorkload) {
  // The full DPC stack (nvme-fs, DPU dispatch, KVFS) against a standalone
  // KVFS over its own store: same random 8 KiB writes, same bytes back.
  core::DpcSystem dpc_sys(dpc_opts());
  kv::KvStore store;
  kv::RemoteKv remote(store);
  kvfs::Kvfs fs(remote);

  const auto f1 = dpc_sys.create(kvfs::kRootIno, "f");
  const auto f2 = fs.create(kvfs::kRootIno, "f", 0644);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());

  sim::WorkloadGen gen({sim::Pattern::kRandWrite, 8192, 1 << 20}, 0);
  for (int i = 0; i < 100; ++i) {
    const auto op = gen.next();
    const auto data = bytes(op.length, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(dpc_sys.write(f1.ino, op.offset, data, true).ok());
    ASSERT_TRUE(fs.write(f2.value, op.offset, data).ok());
  }
  sim::WorkloadGen rgen({sim::Pattern::kRandRead, 8192, 1 << 20}, 1);
  for (int i = 0; i < 50; ++i) {
    const auto op = rgen.next();
    std::vector<std::byte> a(op.length), b(op.length);
    ASSERT_TRUE(dpc_sys.read(f1.ino, op.offset, a, true).ok());
    ASSERT_TRUE(fs.read(f2.value, op.offset, b).ok());
    ASSERT_EQ(a, b) << "divergence at offset " << op.offset;
  }
  kvfs::Attr attr;
  ASSERT_TRUE(dpc_sys.getattr(f1.ino, &attr).ok());
  EXPECT_EQ(attr.size, fs.getattr(f2.value).value.size);
}

TEST(Integration, DpcAndKvfsAgreeOnNamespace) {
  // Namespace ops and their errnos through the DPC fs adapter match a
  // standalone KVFS: mkdir/create/fsync/rename/unlink/readdir/lookup.
  core::DpcSystem dpc_sys(dpc_opts());
  kv::KvStore store;
  kv::RemoteKv remote(store);
  kvfs::Kvfs fs(remote);

  const auto da = dpc_sys.mkdir(kvfs::kRootIno, "a");
  const auto db = dpc_sys.mkdir(kvfs::kRootIno, "b");
  const auto ka = fs.mkdir(kvfs::kRootIno, "a", 0755);
  const auto kb = fs.mkdir(kvfs::kRootIno, "b", 0755);
  ASSERT_TRUE(da.ok() && db.ok() && ka.ok() && kb.ok());
  for (const char* name : {"zeta", "alpha", "mid"}) {
    const auto d = dpc_sys.create(da.ino, name);
    const auto k = fs.create(ka.value, name, 0644);
    ASSERT_TRUE(d.ok() && k.ok()) << name;
    ASSERT_TRUE(dpc_sys.fsync(d.ino).ok());
    ASSERT_TRUE(fs.fsync(k.value).ok());
  }

  EXPECT_EQ(dpc_sys.create(da.ino, "zeta").err, EEXIST);
  EXPECT_EQ(fs.create(ka.value, "zeta", 0644).err, EEXIST);
  ASSERT_TRUE(dpc_sys.rename(da.ino, "mid", db.ino, "moved").ok());
  ASSERT_TRUE(fs.rename(ka.value, "mid", kb.value, "moved").ok());
  EXPECT_EQ(dpc_sys.rename(da.ino, "ghost", db.ino, "x").err, ENOENT);
  EXPECT_EQ(fs.rename(ka.value, "ghost", kb.value, "x").err, ENOENT);
  ASSERT_TRUE(dpc_sys.unlink(da.ino, "zeta").ok());
  ASSERT_TRUE(fs.unlink(ka.value, "zeta").ok());
  EXPECT_EQ(dpc_sys.lookup(da.ino, "zeta").err, ENOENT);
  EXPECT_EQ(fs.lookup(ka.value, "zeta").err, ENOENT);

  const auto names = [](const std::vector<kvfs::DirEntry>& entries) {
    std::vector<std::string> out;
    for (const auto& e : entries) out.push_back(e.name);
    return out;
  };
  for (const auto& [d, k] : {std::pair{da.ino, ka.value},
                             std::pair{db.ino, kb.value}}) {
    std::vector<kvfs::DirEntry> entries;
    ASSERT_TRUE(dpc_sys.readdir(d, &entries).ok());
    const auto listing = fs.readdir(k);
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(names(entries), names(listing.value));
  }
  std::vector<kvfs::DirEntry> entries;
  ASSERT_TRUE(dpc_sys.readdir(da.ino, &entries).ok());
  ASSERT_EQ(names(entries), (std::vector<std::string>{"alpha"}));
  EXPECT_EQ(dpc_sys.readdir(entries[0].ino, &entries).err, ENOTDIR);
  EXPECT_EQ(fs.readdir(fs.lookup(ka.value, "alpha").value).err, ENOTDIR);
}

TEST(Integration, DpcBufferedEqualsDirectAfterFsync) {
  core::DpcSystem sys(dpc_opts());
  const auto fa = sys.create(kvfs::kRootIno, "buffered");
  const auto fb = sys.create(kvfs::kRootIno, "direct");

  sim::WorkloadGen gen({sim::Pattern::kRandWrite, 4096, 256 * 1024}, 2);
  for (int i = 0; i < 200; ++i) {
    const auto op = gen.next();
    const auto data = bytes(op.length, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(sys.write(fa.ino, op.offset, data, false).ok());
    ASSERT_TRUE(sys.write(fb.ino, op.offset, data, true).ok());
  }
  ASSERT_TRUE(sys.fsync(fa.ino).ok());

  // Compare through KVFS directly (below the cache).
  auto& fs = sys.kvfs();
  std::vector<std::byte> a(256 * 1024), b(256 * 1024);
  ASSERT_TRUE(fs.read(fa.ino, 0, a).ok());
  ASSERT_TRUE(fs.read(fb.ino, 0, b).ok());
  EXPECT_EQ(a, b);
}

TEST(Integration, SequentialReadTriggersDpuPrefetch) {
  auto o = dpc_opts();
  o.cache_geo = {4096, cache::CacheMode::kWrite, 256, 16};
  core::DpcSystem sys(o);
  const auto f = sys.create(kvfs::kRootIno, "stream");
  ASSERT_TRUE(sys.write(f.ino, 0, bytes(256 * 1024, 3), true).ok());

  // Sequential 4K reads: after a couple of misses the prefetcher fills
  // ahead and the remaining reads hit host memory.
  std::vector<std::byte> out(4096);
  int hits = 0;
  for (int i = 0; i < 64; ++i) {
    const auto r =
        sys.read(f.ino, static_cast<std::uint64_t>(i) * 4096, out, false);
    ASSERT_TRUE(r.ok());
    hits += r.cache_hit ? 1 : 0;
  }
  EXPECT_GT(sys.control_stats()->pages_prefetched, 8u);
  EXPECT_GT(hits, 32);  // most reads were served from the hybrid cache
}

TEST(Integration, Ext4AndKvfsSemanticallyEquivalent) {
  // The Fig. 7 pair: same POSIX-ish workload on both standalone services.
  ssd::SsdModel disk;
  hostfs::Ext4like ext4(disk);
  core::DpcSystem dpc_sys(dpc_opts());

  const auto e = ext4.create(hostfs::kRootIno, "w", 0644);
  const auto k = dpc_sys.create(kvfs::kRootIno, "w");
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(k.ok());

  sim::WorkloadGen gen({sim::Pattern::kRandWrite, 8192, 1 << 20}, 4);
  for (int i = 0; i < 100; ++i) {
    const auto op = gen.next();
    const auto data = bytes(op.length, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ext4.write(e.value, op.offset, data, true).ok());
    ASSERT_TRUE(dpc_sys.write(k.ino, op.offset, data, true).ok());
  }
  sim::WorkloadGen rgen({sim::Pattern::kRandRead, 8192, 1 << 20}, 5);
  for (int i = 0; i < 50; ++i) {
    const auto op = rgen.next();
    std::vector<std::byte> a(op.length), b(op.length);
    ASSERT_TRUE(ext4.read(e.value, op.offset, a, true).ok());
    ASSERT_TRUE(dpc_sys.read(k.ino, op.offset, b, true).ok());
    ASSERT_EQ(a, b);
  }
  // And the sizes agree.
  EXPECT_EQ(ext4.getattr(e.value).value.size,
            [&] {
              kvfs::Attr attr;
              dpc_sys.getattr(k.ino, &attr);
              return attr.size;
            }());
}

TEST(Integration, SmallFileChurnAcrossSystems) {
  core::DpcSystem sys(dpc_opts());
  sys.start_dpu();
  sim::WorkloadSpec spec;
  spec.pattern = sim::Pattern::kCreate;
  spec.io_size = 8192;
  sim::WorkloadGen gen(spec, 0);
  for (int i = 0; i < 50; ++i) {
    const auto op = gen.next();
    const auto name = "small-" + std::to_string(op.file_id);
    const auto c = sys.create(kvfs::kRootIno, name);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(
        sys.write(c.ino, 0, bytes(op.length, op.file_id), true).ok());
  }
  std::vector<kvfs::DirEntry> entries;
  ASSERT_TRUE(sys.readdir(kvfs::kRootIno, &entries).ok());
  EXPECT_EQ(entries.size(), 50u);
  sys.stop_dpu();
}

TEST(Integration, MixedWorkloadUnderWorkers) {
  auto o = dpc_opts();
  o.queues = 4;
  o.queue_depth = 16;
  core::DpcSystem sys(o);
  sys.start_dpu();
  const auto f = sys.create(kvfs::kRootIno, "mixed");
  ASSERT_TRUE(sys.write(f.ino, (1 << 20) - 4096, bytes(4096, 0), true).ok());

  constexpr int kThreads = 4;
  std::atomic<int> errors{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&sys, &f, t, &errors] {
      sim::WorkloadSpec spec;
      spec.pattern = sim::Pattern::kMixed;
      spec.io_size = 8192;
      spec.file_size = 1 << 20;
      spec.read_fraction = 0.7;  // Fig. 1's mix
      sim::WorkloadGen gen(spec, static_cast<std::uint64_t>(t));
      std::vector<std::byte> buf(8192);
      for (int i = 0; i < 100; ++i) {
        const auto op = gen.next();
        if (op.type == sim::OpType::kRead) {
          if (!sys.read(f.ino, op.offset, buf, true).ok()) ++errors;
        } else {
          if (!sys.write(f.ino, op.offset, bytes(8192, 1), true).ok())
            ++errors;
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  sys.stop_dpu();
  EXPECT_EQ(errors.load(), 0);
}

TEST(Integration, EndToEndDmaRatioMatchesPaper) {
  // The same 8 KiB write measured at the link: the full DPC stack over
  // nvme-fs against the DPFS baseline's virtio-fs transport (echo client).
  // virtio-fs needs 2–3× the DMA operations of nvme-fs (§4.1's
  // explanation for the IOPS/latency gap).
  core::DpcSystem dpc_sys(dpc_opts());
  core::VirtioRawHarness virtio;
  const auto f = dpc_sys.create(kvfs::kRootIno, "ratio");
  const auto data = bytes(8192, 6);

  dpc_sys.dma_counters().reset();
  ASSERT_TRUE(dpc_sys.write(f.ino, 0, data, true).ok());
  const auto nvme_ops =
      dpc_sys.dma_counters().ops(pcie::DmaClass::kDescriptor) +
      dpc_sys.dma_counters().ops(pcie::DmaClass::kData);

  virtio.counters().reset();
  ASSERT_TRUE(virtio.do_write(data));
  const auto virtio_ops = virtio.counters().ops(pcie::DmaClass::kDescriptor) +
                          virtio.counters().ops(pcie::DmaClass::kData);

  EXPECT_EQ(nvme_ops, 4u);
  EXPECT_EQ(virtio_ops, 11u);
  const double ratio =
      static_cast<double>(virtio_ops) / static_cast<double>(nvme_ops);
  EXPECT_GE(ratio, 2.0);
  EXPECT_LE(ratio, 3.0);
}

}  // namespace
}  // namespace dpc
