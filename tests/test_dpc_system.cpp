#include "core/dpc_system.hpp"

#include <gtest/gtest.h>

#include <barrier>
#include <cerrno>
#include <thread>

#include "fault/injector.hpp"
#include "nvme/tgt.hpp"
#include "sim/rng.hpp"

namespace dpc::core {
namespace {

DpcOptions small_opts(bool with_cache = true) {
  DpcOptions o;
  o.queues = 2;
  o.queue_depth = 8;
  o.max_io = 128 * 1024;
  o.enable_cache = with_cache;
  o.cache_geo = {4096, cache::CacheMode::kWrite, 64, 8};
  o.cache_ctl.evict_low_water = 4;
  o.cache_ctl.evict_batch = 8;
  o.with_dfs = true;
  o.dpu_workers = 2;
  return o;
}

std::vector<std::byte> bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

TEST(DpcSystem, NamespaceOpsOverNvmeFs) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "file");
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c.ino, 0u);
  EXPECT_GT(c.cost.ns, 0);

  const auto l = sys.lookup(kvfs::kRootIno, "file");
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l.ino, c.ino);

  EXPECT_EQ(sys.lookup(kvfs::kRootIno, "ghost").err, ENOENT);
  EXPECT_EQ(sys.create(kvfs::kRootIno, "file").err, EEXIST);

  kvfs::Attr attr;
  ASSERT_TRUE(sys.getattr(c.ino, &attr).ok());
  EXPECT_EQ(attr.ino, c.ino);
  EXPECT_EQ(attr.type, kvfs::FileType::kRegular);
}

TEST(DpcSystem, MkdirReaddirRenameUnlink) {
  DpcSystem sys(small_opts());
  const auto d = sys.mkdir(kvfs::kRootIno, "dir");
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(sys.create(d.ino, "a").ok());
  ASSERT_TRUE(sys.create(d.ino, "b").ok());
  std::vector<kvfs::DirEntry> entries;
  ASSERT_TRUE(sys.readdir(d.ino, &entries).ok());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "a");

  ASSERT_TRUE(sys.rename(d.ino, "a", kvfs::kRootIno, "a-moved").ok());
  EXPECT_TRUE(sys.resolve("/a-moved").ok());
  ASSERT_TRUE(sys.unlink(d.ino, "b").ok());
  ASSERT_TRUE(sys.rmdir(kvfs::kRootIno, "dir").ok());
}

TEST(DpcSystem, DirectWriteReadRoundTrip) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "data");
  const auto data = bytes(64 * 1024, 1);
  const auto w = sys.write(c.ino, 0, data, /*direct=*/true);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.bytes, data.size());
  EXPECT_FALSE(w.cache_hit);

  std::vector<std::byte> out(data.size());
  const auto r = sys.read(c.ino, 0, out, /*direct=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
}

TEST(DpcSystem, BufferedWriteLandsInHybridCache) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "cached");
  const auto data = bytes(8192, 2);
  const auto w = sys.write(c.ino, 0, data, /*direct=*/false);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w.cache_hit);  // absorbed by host memory
  EXPECT_EQ(sys.cache_stats()->writes_cached.load(), 2u);  // two 4K pages

  // Re-read hits the host cache: zero PCIe data traffic for the payload.
  const auto data_ops_before =
      sys.dma_counters().ops(pcie::DmaClass::kData);
  std::vector<std::byte> out(8192);
  const auto r = sys.read(c.ino, 0, out, /*direct=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(out, data);
  EXPECT_EQ(sys.dma_counters().ops(pcie::DmaClass::kData), data_ops_before);
}

TEST(DpcSystem, FsyncFlushesDirtyPagesToKvfs) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "durable");
  const auto data = bytes(4096, 3);
  ASSERT_TRUE(sys.write(c.ino, 0, data, false).ok());
  ASSERT_TRUE(sys.fsync(c.ino).ok());
  EXPECT_GT(sys.control_stats()->pages_flushed, 0u);
  // Direct read bypasses the cache: KVFS must hold the bytes now.
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(sys.read(c.ino, 0, out, /*direct=*/true).ok());
  EXPECT_EQ(out, data);
}

TEST(DpcSystem, ReadMissFillsCacheClean) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "fill");
  const auto data = bytes(4096, 4);
  ASSERT_TRUE(sys.write(c.ino, 0, data, /*direct=*/true).ok());
  std::vector<std::byte> out(4096);
  const auto r1 = sys.read(c.ino, 0, out, false);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.cache_hit);
  const auto r2 = sys.read(c.ino, 0, out, false);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(out, data);
}

TEST(DpcSystem, BufferedSizeGrowthVisibleInGetattr) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "grow");
  ASSERT_TRUE(sys.write(c.ino, 0, bytes(8192, 5), false).ok());
  kvfs::Attr attr;
  ASSERT_TRUE(sys.getattr(c.ino, &attr).ok());
  EXPECT_EQ(attr.size, 8192u);
}

TEST(DpcSystem, TruncateInvalidatesCachedTail) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "trunc");
  ASSERT_TRUE(sys.write(c.ino, 0, bytes(16384, 6), false).ok());
  ASSERT_TRUE(sys.truncate(c.ino, 4096).ok());
  kvfs::Attr attr;
  ASSERT_TRUE(sys.getattr(c.ino, &attr).ok());
  EXPECT_EQ(attr.size, 4096u);
  std::vector<std::byte> out(4096);
  const auto r = sys.read(c.ino, 4096, out, false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, 0u);  // past EOF
}

TEST(DpcSystem, UnalignedIoBypassesCache) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "unaligned");
  const auto data = bytes(100, 7);
  const auto w = sys.write(c.ino, 3, data, false);
  ASSERT_TRUE(w.ok());
  EXPECT_FALSE(w.cache_hit);  // write-through
  std::vector<std::byte> out(100);
  const auto r = sys.read(c.ino, 3, out, false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
}

TEST(DpcSystem, CachePressureFallsBackToWriteThrough) {
  auto o = small_opts();
  o.cache_geo = {4096, cache::CacheMode::kWrite, 16, 2};  // tiny cache
  DpcSystem sys(o);
  const auto c = sys.create(kvfs::kRootIno, "pressure");
  // Write far more pages than the cache holds; all writes must succeed.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(sys.write(c.ino, static_cast<std::uint64_t>(i) * 4096,
                          bytes(4096, static_cast<std::uint64_t>(i)), false)
                    .ok())
        << i;
  }
  ASSERT_TRUE(sys.fsync(c.ino).ok());
  // Everything readable back (direct — straight from KVFS).
  for (int i = 0; i < 64; ++i) {
    std::vector<std::byte> out(4096);
    ASSERT_TRUE(sys.read(c.ino, static_cast<std::uint64_t>(i) * 4096, out,
                         true)
                    .ok());
    EXPECT_EQ(out, bytes(4096, static_cast<std::uint64_t>(i))) << i;
  }
}

TEST(DpcSystem, WithDpuWorkersRunning) {
  DpcSystem sys(small_opts());
  sys.start_dpu();
  const auto c = sys.create(kvfs::kRootIno, "workers");
  ASSERT_TRUE(c.ok());
  const auto data = bytes(8192, 8);
  ASSERT_TRUE(sys.write(c.ino, 0, data, true).ok());
  std::vector<std::byte> out(8192);
  ASSERT_TRUE(sys.read(c.ino, 0, out, true).ok());
  EXPECT_EQ(out, data);
  sys.stop_dpu();
}

TEST(DpcSystem, ConcurrentThreadsWithWorkers) {
  auto o = small_opts();
  o.queues = 4;
  o.queue_depth = 16;
  DpcSystem sys(o);
  sys.start_dpu();
  constexpr int kThreads = 8;
  std::atomic<int> errors{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&sys, t, &errors] {
      const auto c =
          sys.create(kvfs::kRootIno, "thread" + std::to_string(t));
      if (!c.ok()) {
        ++errors;
        return;
      }
      const auto data = bytes(8192, static_cast<std::uint64_t>(t));
      std::vector<std::byte> out(8192);
      for (int i = 0; i < 30; ++i) {
        if (!sys.write(c.ino, static_cast<std::uint64_t>(i % 4) * 8192, data,
                       true)
                 .ok())
          ++errors;
        if (!sys.read(c.ino, static_cast<std::uint64_t>(i % 4) * 8192, out,
                      true)
                 .ok())
          ++errors;
        else if (out != data)
          ++errors;
      }
    });
  }
  for (auto& t : ts) t.join();
  sys.stop_dpu();
  EXPECT_EQ(errors.load(), 0);
}

TEST(DpcSystem, WriteThroughRacingPrefetchLeavesNoStaleCachedPage) {
  // A buffered write that finds its bucket full goes write-through to the
  // DPU. A DPU prefetch of the same page that read the old bytes from KVFS
  // before that write landed must not leave them cached as a clean hit.
  // Worker mode with a 1024-page cache, where buckets are nearly always
  // full. Each cell is six pages: the reader misses on the first two, which
  // makes the DPU prefetch the other four, while the writer rewrites those
  // four; afterwards a buffered read of each must see the writer's bytes.
  DpcOptions o;
  o.cache_geo.total_pages = 1024;
  o.with_dfs = false;
  // This test is about cache coherence, not the NVMe deadline: under a
  // sanitizer's slowdown the default 100 ms deadline fires, and the late
  // payload DMA of an aborted read then races the retry's reuse of its
  // queue slot (a separate, known defect).
  o.nvme_timeout_ms = 10000;
  DpcSystem sys(o);
  sys.start_dpu();
  constexpr std::uint64_t kPage = 4096;
  constexpr std::uint64_t kCell = 6;
  constexpr std::uint64_t kCells = 400;  // a 9.4 MiB file, > 2x the cache
  constexpr int kRounds = 4;
  const auto f = sys.create(kvfs::kRootIno, "wt-race");
  ASSERT_TRUE(f.ok());
  auto content = [](std::uint64_t page, std::uint64_t version) {
    return bytes(kPage, page * 1000 + version);
  };
  for (std::uint64_t p = 0; p < kCells * kCell; p += 64) {
    std::vector<std::byte> chunk;
    for (std::uint64_t q = p; q < p + 64; ++q) {
      const auto c = content(q, 0);
      chunk.insert(chunk.end(), c.begin(), c.end());
    }
    ASSERT_TRUE(sys.write(f.ino, p * kPage, chunk, true).ok());
  }

  std::barrier sync(2);
  std::atomic<int> reader_errors{0};
  int writer_errors = 0;
  int stale = 0;
  std::thread reader([&] {
    std::vector<std::byte> got(kPage);
    for (int round = 0; round < kRounds; ++round) {
      for (std::uint64_t cell = 0; cell < kCells; ++cell) {
        sync.arrive_and_wait();
        for (std::uint64_t p = cell * kCell; p < cell * kCell + 2; ++p) {
          if (!sys.read(f.ino, p * kPage, got, false).ok() ||
              got != content(p, 0))
            ++reader_errors;
        }
        sync.arrive_and_wait();
      }
    }
  });
  std::vector<std::byte> got(kPage);
  for (int round = 1; round <= kRounds; ++round) {
    for (std::uint64_t cell = 0; cell < kCells; ++cell) {
      sync.arrive_and_wait();
      // Failures are counted, not asserted: returning early would leave
      // the reader blocked on the barrier.
      const auto version = static_cast<std::uint64_t>(round);
      for (std::uint64_t p = cell * kCell + 2; p < (cell + 1) * kCell; ++p)
        if (!sys.write(f.ino, p * kPage, content(p, version), false).ok())
          ++writer_errors;
      sync.arrive_and_wait();
      for (std::uint64_t p = cell * kCell + 2; p < (cell + 1) * kCell; ++p) {
        if (!sys.read(f.ino, p * kPage, got, false).ok())
          ++writer_errors;
        else if (got != content(p, version))
          ++stale;
      }
    }
  }
  reader.join();
  sys.stop_dpu();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(writer_errors, 0);
  EXPECT_EQ(stale, 0) << "buffered reads returned a pre-write page";
  EXPECT_GT(sys.metrics().counter("cache.host/write_stalls").load(), 0u)
      << "no write went write-through; the race was not exercised";
}

TEST(DpcSystem, DirectWriteRacingReadMissLeavesNoStaleCachedPage) {
  // A buffered read that misses fetches the pages from the DPU and then
  // caches them clean. A DIRECT_IO write of the same pages that lands and
  // invalidates between that fetch and the fill must still win: afterwards
  // a buffered read has to return the write's bytes, not the fetched ones.
  DpcOptions o = small_opts();
  o.with_dfs = false;
  o.cache_geo = {4096, cache::CacheMode::kWrite, 1024, 64};
  // Cache coherence is under test, not the NVMe deadline, which a
  // sanitizer's slowdown can make fire.
  o.nvme_timeout_ms = 10000;
  DpcSystem sys(o);
  sys.start_dpu();
  constexpr std::uint64_t kPage = 4096;
  constexpr std::uint64_t kPagesPerIo = 8;
  constexpr std::uint64_t kSlots = 32;  // a 1 MiB file, a quarter of cache
  constexpr int kIters = 1500;
  const auto f = sys.create(kvfs::kRootIno, "fill-race");
  ASSERT_TRUE(f.ok());
  const std::uint64_t io = kPage * kPagesPerIo;
  ASSERT_TRUE(sys.write(f.ino, 0, bytes(io * kSlots, 1), true).ok());

  std::barrier sync(2);
  std::atomic<int> reader_errors{0};
  std::thread reader([&] {
    std::vector<std::byte> got(io);
    for (int i = 0; i < kIters; ++i) {
      sync.arrive_and_wait();
      const std::uint64_t slot = static_cast<std::uint64_t>(i) % kSlots;
      if (!sys.read(f.ino, slot * io, got, false).ok()) ++reader_errors;
      sync.arrive_and_wait();
    }
  });
  int writer_errors = 0;
  int stale = 0;
  std::vector<std::byte> got(io);
  for (int i = 0; i < kIters; ++i) {
    const std::uint64_t slot = static_cast<std::uint64_t>(i) % kSlots;
    const auto seed = static_cast<std::uint64_t>(i) * 2 + 100;
    // Uncache the slot first, so the reader's read below is a miss. Failures
    // are counted, not asserted: returning early would strand the reader.
    if (!sys.write(f.ino, slot * io, bytes(io, seed), true).ok())
      ++writer_errors;
    sync.arrive_and_wait();
    const auto want = bytes(io, seed + 1);
    if (!sys.write(f.ino, slot * io, want, true).ok()) ++writer_errors;
    sync.arrive_and_wait();
    if (!sys.read(f.ino, slot * io, got, false).ok())
      ++writer_errors;
    else if (got != want)
      ++stale;
  }
  reader.join();
  sys.stop_dpu();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(writer_errors, 0);
  EXPECT_EQ(stale, 0) << "buffered reads returned a pre-write page";
}

TEST(DpcSystem, TruncateRacingReadMissLeavesNoStaleCachedPage) {
  // A buffered read miss that reaches the DPU before a racing truncate
  // fetches the pre-truncate bytes. Its fill must not cache them past the
  // new EOF: once an extending write re-grows the file, the truncated range
  // has to read back as zeros, not as the old bytes.
  DpcOptions o = small_opts();
  o.with_dfs = false;
  o.cache_geo = {4096, cache::CacheMode::kWrite, 1024, 64};
  // Cache coherence is under test, not the NVMe deadline, which a
  // sanitizer's slowdown can make fire.
  o.nvme_timeout_ms = 10000;
  DpcSystem sys(o);
  sys.start_dpu();
  constexpr std::uint64_t kPage = 4096;
  constexpr std::uint64_t kPagesPerIo = 8;
  constexpr int kIters = 1500;
  const std::uint64_t io = kPage * kPagesPerIo;
  const auto f = sys.create(kvfs::kRootIno, "trunc-race");
  ASSERT_TRUE(f.ok());

  // The reader spins on `round` instead of sleeping on a barrier, so its
  // read and the truncate start together and race on the DPU.
  std::atomic<int> round{0};
  std::barrier done(2);
  std::atomic<int> reader_errors{0};
  std::thread reader([&] {
    std::vector<std::byte> got(io);
    for (int i = 1; i <= kIters; ++i) {
      while (round.load(std::memory_order_acquire) != i) {
      }
      if (!sys.read(f.ino, 0, got, false).ok()) ++reader_errors;
      done.arrive_and_wait();
    }
  });
  int writer_errors = 0;
  int stale = 0;
  const std::vector<std::byte> zeros(io - kPage);
  std::vector<std::byte> got(io - kPage);
  for (int i = 1; i <= kIters; ++i) {
    // Rewrite the first io bytes (which also uncaches them, so the reader's
    // read is a miss), cut the file back to one page while that read is in
    // flight, then re-grow it past the cut with a write beyond. Failures are
    // counted, not asserted: returning early would strand the reader.
    if (!sys.write(f.ino, 0, bytes(io, static_cast<std::uint64_t>(i)), true)
             .ok())
      ++writer_errors;
    round.store(i, std::memory_order_release);
    if (!sys.truncate(f.ino, kPage).ok()) ++writer_errors;
    done.arrive_and_wait();
    if (!sys.write(f.ino, io, bytes(kPage, 7), true).ok()) ++writer_errors;
    if (!sys.read(f.ino, kPage, got, false).ok())
      ++writer_errors;
    else if (got != zeros)
      ++stale;
  }
  reader.join();
  sys.stop_dpu();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(writer_errors, 0);
  EXPECT_EQ(stale, 0) << "bytes past a truncate's EOF came back from the "
                         "host cache";
}

TEST(DpcSystem, ConcurrentBufferedAppendersKeepEveryPage) {
  // Several threads append disjoint pages to one file through the host
  // cache. Each absorbed write publishes its new end with a size update; a
  // thread whose update carries a smaller end than another's may send it
  // last. That stale update must neither drop the other writer's dirty
  // pages on the host nor cut the file on the DPU.
  DpcOptions o = small_opts();
  o.with_dfs = false;
  o.queues = 4;
  o.cache_geo = {4096, cache::CacheMode::kWrite, 4096, 256};
  // Page loss is under test, not the NVMe deadline, which a sanitizer's
  // slowdown can make fire.
  o.nvme_timeout_ms = 10000;
  DpcSystem sys(o);
  sys.start_dpu();
  constexpr std::uint64_t kPage = 4096;
  constexpr int kThreads = 8;
  constexpr int kFiles = 24;
  constexpr int kPages = 32;  // per file; thread t owns pages t, t+8, ...
  const auto page_of = [](int file, int p) {
    return bytes(kPage, static_cast<std::uint64_t>(file) * 1000 + p);
  };
  std::vector<std::uint64_t> inos;
  for (int f = 0; f < kFiles; ++f) {
    const auto c = sys.create(kvfs::kRootIno, "append" + std::to_string(f));
    ASSERT_TRUE(c.ok());
    inos.push_back(c.ino);
  }

  // A barrier per file keeps every thread appending to the same file at
  // once, in lockstep page rounds.
  std::barrier round(kThreads);
  std::atomic<int> errors{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int f = 0; f < kFiles; ++f) {
        for (int p = t; p < kPages; p += kThreads) {
          const auto data = page_of(f, p);
          round.arrive_and_wait();
          if (!sys.write(inos[static_cast<std::size_t>(f)],
                         static_cast<std::uint64_t>(p) * kPage, data, false)
                   .ok())
            ++errors;
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  ASSERT_EQ(errors.load(), 0);

  int short_files = 0;
  int lost_pages = 0;
  std::vector<std::byte> got(kPage);
  for (int f = 0; f < kFiles; ++f) {
    const std::uint64_t ino = inos[static_cast<std::size_t>(f)];
    ASSERT_TRUE(sys.fsync(ino).ok());
    kvfs::Attr attr;
    ASSERT_TRUE(sys.getattr(ino, &attr).ok());
    if (attr.size != kPages * kPage) ++short_files;
    for (int p = 0; p < kPages; ++p) {
      ASSERT_TRUE(
          sys.read(ino, static_cast<std::uint64_t>(p) * kPage, got, true)
              .ok());
      if (got != page_of(f, p)) ++lost_pages;
    }
  }
  sys.stop_dpu();
  EXPECT_EQ(short_files, 0) << "a stale size update cut appended files";
  EXPECT_EQ(lost_pages, 0) << "acked appended pages did not read back";
}

TEST(DpcSystem, DfsPathThroughDispatchBit) {
  DpcSystem sys(small_opts());
  const auto c = sys.dfs_create("/dfs/file", 1 << 20);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(sys.dfs_open("/dfs/file").ino, c.ino);
  const auto data = bytes(8192, 9);
  ASSERT_TRUE(sys.dfs_write(c.ino, 0, data).ok());
  std::vector<std::byte> out(8192);
  ASSERT_TRUE(sys.dfs_read(c.ino, 0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_GT(sys.dispatch_stats().dfs_ops.load(), 0u);
  // The data really lives EC-striped on the data servers.
  EXPECT_TRUE(sys.data_servers()->has_shard(c.ino, 0, 0));
  EXPECT_TRUE(sys.data_servers()->has_shard(c.ino, 0, 4));  // parity
}

TEST(DpcSystem, ErrorsPropagateThroughCqe) {
  DpcSystem sys(small_opts());
  std::vector<std::byte> out(4096);
  EXPECT_EQ(sys.read(31337, 0, out, true).err, ENOENT);
  EXPECT_EQ(sys.write(31337, 0, bytes(4096, 1), true).err, ENOENT);
  EXPECT_EQ(sys.truncate(31337, 0).err, ENOENT);
  EXPECT_EQ(sys.fsync(31337).err, ENOENT);
}

TEST(DpcSystem, NoCacheModeWorks) {
  DpcSystem sys(small_opts(/*with_cache=*/false));
  EXPECT_EQ(sys.cache_stats(), nullptr);
  const auto c = sys.create(kvfs::kRootIno, "nocache");
  const auto data = bytes(8192, 10);
  const auto w = sys.write(c.ino, 0, data, false);
  ASSERT_TRUE(w.ok());
  EXPECT_FALSE(w.cache_hit);
  std::vector<std::byte> out(8192);
  ASSERT_TRUE(sys.read(c.ino, 0, out, false).ok());
  EXPECT_EQ(out, data);
}

TEST(DpcSystem, DispatchStatsAccumulate) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "stats");
  (void)sys.write(c.ino, 0, bytes(4096, 11), true);
  std::vector<std::byte> out(4096);
  (void)sys.read(c.ino, 0, out, true);
  const auto& st = sys.dispatch_stats();
  EXPECT_GE(st.header_ops.load(), 1u);
  EXPECT_GE(st.inline_writes.load(), 1u);
  EXPECT_GE(st.inline_reads.load(), 1u);
  EXPECT_GT(sys.mean_backend_cost().ns, 0);
}

TEST(DpcSystem, FlushCompressionAccountsWireSavings) {
  auto o = small_opts();
  o.cache_ctl.compress_enabled = true;
  DpcSystem sys(o);
  const auto c = sys.create(kvfs::kRootIno, "compressible");
  // Highly compressible pages (repeated text).
  std::vector<std::byte> page(8192);
  const char* phrase = "offload the file stack to the DPU ";
  for (std::size_t i = 0; i < page.size(); ++i)
    page[i] = static_cast<std::byte>(phrase[i % 34]);
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(sys.write(c.ino, static_cast<std::uint64_t>(i) * 8192, page,
                          false)
                    .ok());
  ASSERT_TRUE(sys.fsync(c.ino).ok());
  const auto* ctl = sys.control_stats();
  EXPECT_GT(ctl->compress_in_bytes, 0u);
  EXPECT_LT(ctl->compress_out_bytes, ctl->compress_in_bytes / 4)
      << "repetitive pages must compress well on the flush path";
  // And the data survives the compress/verify/flush pipeline.
  std::vector<std::byte> out(8192);
  ASSERT_TRUE(sys.read(c.ino, 0, out, /*direct=*/true).ok());
  EXPECT_EQ(out, page);
}

TEST(DpcSystem, LargeSegmentedIo) {
  auto o = small_opts();
  o.max_io = 64 * 1024;
  DpcSystem sys(o);
  const auto c = sys.create(kvfs::kRootIno, "huge");
  const auto data = bytes(300 * 1024, 42);  // > 4 segments
  const auto w = sys.write(c.ino, 0, data, true);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.bytes, data.size());
  std::vector<std::byte> out(data.size());
  const auto r = sys.read(c.ino, 0, out, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, data.size());
  EXPECT_EQ(out, data);
  // Short segmented read at EOF.
  std::vector<std::byte> tail(128 * 1024);
  const auto rt = sys.read(c.ino, 200 * 1024, tail, true);
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt.bytes, 100u * 1024);
}

/// The host copies a payload once between the caller's span and the queue
/// slot: a read's verified reply goes straight into dst, a write's source
/// straight into the slot.
TEST(DpcSystem, LargeIoCopiesPayloadOncePerDirection) {
  constexpr std::size_t kMiB = 1 << 20;
  auto o = small_opts();
  o.max_io = kMiB;
  DpcSystem sys(o);
  obs::Counter& copied = sys.metrics().counter("nvme.host/payload_copy_bytes");
  const auto data = bytes(kMiB, 77);
  std::vector<std::byte> out(kMiB);
  std::uint64_t mark = 0;
  const auto copied_since_mark = [&] {
    const std::uint64_t n = copied.value() - mark;
    mark = copied.value();
    return n;
  };

  const auto d = sys.dfs_create("/dfs/big", 4 * kMiB);
  ASSERT_TRUE(d.ok());
  copied_since_mark();
  ASSERT_TRUE(sys.dfs_write(d.ino, 0, data).ok());
  EXPECT_EQ(copied_since_mark(), kMiB) << "dfs_write";
  ASSERT_TRUE(sys.dfs_read(d.ino, 0, out).ok());
  EXPECT_EQ(copied_since_mark(), kMiB) << "dfs_read";
  EXPECT_EQ(out, data);

  const auto k = sys.create(kvfs::kRootIno, "big");
  ASSERT_TRUE(k.ok());
  std::fill(out.begin(), out.end(), std::byte{0});
  copied_since_mark();
  ASSERT_TRUE(sys.write(k.ino, 0, data, /*direct=*/true).ok());
  EXPECT_EQ(copied_since_mark(), kMiB) << "DIRECT_IO write";
  ASSERT_TRUE(sys.read(k.ino, 0, out, /*direct=*/true).ok());
  EXPECT_EQ(copied_since_mark(), kMiB) << "DIRECT_IO read";
  EXPECT_EQ(out, data);
}

/// A reply that fails the host's trailer check never reaches the caller:
/// the read fails with EIO and dst keeps every byte it had.
TEST(DpcSystem, CorruptReadReplyLeavesDstUntouched) {
  obs::Registry fault_reg;
  fault::FaultInjector fi(5, &fault_reg);
  auto o = small_opts();
  o.fault = &fi;
  DpcSystem sys(o);
  const auto data = bytes(64 * 1024, 3);
  const auto k = sys.create(kvfs::kRootIno, "rot");
  ASSERT_TRUE(sys.write(k.ino, 0, data, true).ok());
  const auto d = sys.dfs_create("/dfs/rot", 1 << 20);
  ASSERT_TRUE(sys.dfs_write(d.ino, 0, data).ok());

  obs::Counter& copied = sys.metrics().counter("nvme.host/payload_copy_bytes");
  const std::uint64_t copied_before = copied.value();
  fi.arm(nvme::kFaultTgtCorruptRead, 1.0);
  const std::vector<std::byte> sentinel(data.size(), std::byte{0xEE});
  std::vector<std::byte> out = sentinel;
  EXPECT_EQ(sys.read(k.ino, 0, out, true).err, EIO);
  EXPECT_EQ(out, sentinel);
  EXPECT_EQ(sys.dfs_read(d.ino, 0, out).err, EIO);
  EXPECT_EQ(out, sentinel);
  fi.disarm(nvme::kFaultTgtCorruptRead);
  EXPECT_EQ(sys.metrics().counter("nvme.host/integrity_errors").value(), 2u);
  EXPECT_EQ(copied.value(), copied_before) << "a failed read copied bytes";
}

TEST(DpcSystem, HardLinkOverNvmeFs) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "target");
  ASSERT_TRUE(sys.write(c.ino, 0, bytes(4096, 60), true).ok());
  ASSERT_TRUE(sys.link(c.ino, kvfs::kRootIno, "hard").ok());
  const auto l = sys.lookup(kvfs::kRootIno, "hard");
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l.ino, c.ino);
  kvfs::Attr attr;
  ASSERT_TRUE(sys.getattr(c.ino, &attr).ok());
  EXPECT_EQ(attr.nlink, 2u);
  EXPECT_EQ(sys.link(c.ino, kvfs::kRootIno, "hard").err, EEXIST);
}

TEST(DpcSystem, SymlinkOverNvmeFs) {
  DpcSystem sys(small_opts());
  const auto d = sys.mkdir(kvfs::kRootIno, "data");
  const auto f = sys.create(d.ino, "real");
  ASSERT_TRUE(sys.write(f.ino, 0, bytes(100, 70), true).ok());
  ASSERT_TRUE(sys.symlink("/data/real", kvfs::kRootIno, "ln").ok());
  std::string target;
  const auto lnk = sys.lookup(kvfs::kRootIno, "ln");
  ASSERT_TRUE(lnk.ok());
  ASSERT_TRUE(sys.readlink(lnk.ino, &target).ok());
  EXPECT_EQ(target, "/data/real");
  // resolve follows the link through the whole offloaded stack.
  const auto r = sys.resolve("/ln");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ino, f.ino);
  EXPECT_EQ(sys.readlink(f.ino, &target).err, EINVAL);
}

TEST(DpcSystem, StatfsThroughKvfs) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "f");
  ASSERT_TRUE(sys.write(c.ino, 0, bytes(10000, 71), true).ok());
  auto st = sys.kvfs().statfs();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value.inodes, 2u);  // root + f
  EXPECT_EQ(st.value.data_bytes, 10000u);
  EXPECT_GT(st.value.kv_count, 3u);
}

TEST(DpcSystem, LatencyHistogramsRecordPerClass) {
  DpcSystem sys(small_opts());
  const auto c = sys.create(kvfs::kRootIno, "hist");
  const auto data = bytes(4096, 50);
  std::vector<std::byte> out(4096);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sys.write(c.ino, 0, data, true).ok());
    ASSERT_TRUE(sys.read(c.ino, 0, out, true).ok());
  }
  EXPECT_GE(sys.latency(DpcSystem::OpClass::kMeta).count(), 1u);
  EXPECT_EQ(sys.latency(DpcSystem::OpClass::kWrite).count(), 10u);
  EXPECT_EQ(sys.latency(DpcSystem::OpClass::kRead).count(), 10u);
  // Direct ops are far slower than buffered hits; sanity the magnitudes.
  EXPECT_GT(sys.latency(DpcSystem::OpClass::kRead).mean().us(), 50.0);
  EXPECT_FALSE(sys.latency_summary().empty());
}

}  // namespace
}  // namespace dpc::core
