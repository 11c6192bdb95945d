#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <iostream>
#include <thread>
#include <unordered_map>

#include "ec/crc32c.hpp"
#include "ec/reed_solomon.hpp"
#include "kv/kv_store.hpp"
#include "kvfs/fsck.hpp"

namespace perfbench {
namespace {

using dpc::core::DpcOptions;
using dpc::core::DpcSystem;
using dpc::core::Io;
using dpc::kvfs::kRootIno;

constexpr std::uint64_t kMiB = 1ull << 20;

std::string at_offset(std::uint64_t off) {
  return "offset=" + std::to_string(off);
}

/// Set-up failures are not oracle mismatches, but they end the run too.
Io must(const Io& io, const char* what) {
  if (!io.ok())
    throw std::runtime_error(std::string("set-up: ") + what +
                             " failed, errno " + std::to_string(io.err));
  return io;
}

/// A mutation that failed leaves the shadow unable to say what the program
/// holds, so it ends the run rather than counting as a failed op.
void require_ok(Client& c, const Io& io, const char* op,
                const std::string& where) {
  if (!io.ok())
    report_mismatch(c.workload, op, where,
                    "mutation failed with errno " + std::to_string(io.err) +
                    "; the shadow can no longer be exact");
}

void require_fsck_clean(const std::string& workload, DpcSystem& sys) {
  const auto rep = dpc::kvfs::fsck(sys.kv_store());
  if (!rep.clean()) {
    const auto& first = rep.issues.front();
    report_mismatch(workload, "fsck", "ino=" + std::to_string(first.ino),
                    std::to_string(rep.issues.size()) + " issue(s), first: " +
                    dpc::kvfs::to_string(first.kind) + " " + first.detail);
  }
}

/// Content key of version `version` of block/file `id`.
std::uint64_t content_key(std::uint64_t seed, std::uint64_t id,
                          std::uint64_t version) {
  return mix(mix(seed, id), version);
}

/// Writes `bytes` of version-0 content of `io`-sized blocks with 1 MiB
/// DIRECT_IO writes (set-up; not measured).
template <class WriteFn>
void preload(std::uint64_t seed, std::uint64_t bytes, std::uint64_t io,
             WriteFn&& write_chunk) {
  std::vector<std::byte> chunk(kMiB);
  for (std::uint64_t at = 0; at < bytes; at += kMiB) {
    for (std::uint64_t b = 0; b < kMiB; b += io)
      fill(std::span(chunk).subspan(b, io),
           content_key(seed, (at + b) / io, 0));
    write_chunk(at, chunk);
  }
}

/// The layer-peel reference store: one value per block, of the op's size,
/// plus one attribute-sized value for metadata ops.
class PeelStore {
 public:
  void build(std::uint64_t values, std::uint64_t value_bytes) {
    store_ = std::make_unique<dpc::kv::KvStore>();
    std::vector<std::byte> v(value_bytes, std::byte{0x5A});
    for (std::uint64_t i = 0; i < values; ++i) store_->put(key(i), v);
    std::vector<std::byte> attr(sizeof(dpc::kvfs::Attr), std::byte{0x33});
    store_->put("attr", attr);
  }
  static std::string key(std::uint64_t i) { return "b" + std::to_string(i); }
  /// KV self time of a data read / write of block `i`.
  void read(Client& c, std::uint64_t i, std::span<std::byte> dst) {
    const std::string k = key(i % values());
    c.time(c.peel.kv_ns, [&] { (void)store_->read_sub(k, 0, dst); });
  }
  void write(Client& c, std::uint64_t i, std::span<const std::byte> src) {
    const std::string k = key(i % values());
    c.time(c.peel.kv_ns, [&] { store_->write_sub(k, 0, src); });
  }
  /// KV self time of a metadata op: one attribute-sized get.
  void meta(Client& c) {
    c.time(c.peel.kv_ns, [&] { (void)store_->get("attr"); });
  }

 private:
  std::uint64_t values() const { return store_->size() - 1; }
  std::unique_ptr<dpc::kv::KvStore> store_;
};

/// CRC32C over one op's payload, as the integrity checks on the data path
/// compute it.
void peel_crc(Client& c, std::span<const std::byte> payload) {
  c.peel.crc_ns += c.time([&] { (void)dpc::ec::crc32c(payload); });
  c.peel.crc_bytes += payload.size();
}

/// EC and CRC peel on one DFS payload: RS(4,2) with 8 KiB units, as the
/// offloaded DFS client stripes a 1 MiB op.
void peel_ec(Client& c, std::span<const std::byte> payload, bool read) {
  static const dpc::ec::ReedSolomon rs(4, 2);
  constexpr std::size_t kUnit = 8192, kK = 4, kN = 6;
  std::vector<std::byte> shards(kN * kUnit);
  std::array<std::span<const std::byte>, kK> data;
  std::array<std::span<std::byte>, kN - kK> parity;
  std::array<std::span<std::byte>, kN> all;
  for (std::size_t i = 0; i < kN; ++i)
    all[i] = std::span(shards).subspan(i * kUnit, kUnit);
  for (std::size_t i = 0; i < kK; ++i) data[i] = all[i];
  for (std::size_t i = 0; i < kN - kK; ++i) parity[i] = all[kK + i];
  for (std::size_t at = 0; at + kK * kUnit <= payload.size();
       at += kK * kUnit) {
    std::memcpy(shards.data(), payload.data() + at, kK * kUnit);
    if (!read) {
      c.peel.ec_encode_ns += c.time([&] { rs.encode(data, parity); });
      c.peel.ec_encode_bytes += kK * kUnit;
    } else {
      // A degraded read: two data units lost, rebuilt from the rest.
      rs.encode(data, parity);
      std::memset(shards.data(), 0, 2 * kUnit);
      const std::array<bool, kN> present{false, false, true, true, true, true};
      c.peel.ec_reconstruct_ns +=
          c.time([&] { rs.reconstruct(all, present); });
      c.peel.ec_reconstruct_bytes += kK * kUnit;
    }
  }
  peel_crc(c, payload);
}

// ------------------------------------------------------------------------
// A 64 MiB KVFS file read and written in fixed-size blocks (70/30), client
// thread t owning the blocks b with b % threads == t. After every
// `commit_every` data ops a thread runs a commit point: getattr + fsync.
//
// kvfs-direct-8k:     DIRECT_IO 8 KiB blocks, uniform, 1 client thread.
// cache-buffered-hot: buffered 4 KiB pages, 90% of accesses in the hot 10%
//                     of the file, 2 client threads, 16 MiB host cache.

struct BlockFileShape {
  const char* name;
  const char* file;
  std::uint64_t io;
  int threads;
  bool direct;
  int commit_every;
  int warmup_steps;
  unsigned hot_percent;     ///< share of accesses in the first hot_blocks
  std::uint64_t hot_blocks;  ///< a multiple of `threads`
};

constexpr BlockFileShape kKvfsDirect8k{
    "kvfs-direct-8k", "kvfs-direct.dat", 8192, 1, true, 32, 2000, 0, 0};
constexpr BlockFileShape kCacheBufferedHot{
    "cache-buffered-hot", "cache-hot.dat", 4096, 2, false, 64, 8000, 90, 1638};

class BlockFile final : public Workload {
 public:
  static constexpr std::uint64_t kFile = 64 * kMiB;

  BlockFile(const BlockFileShape& shape, std::uint64_t seed)
      : shape_(shape),
        blocks_(kFile / shape.io),
        seed_(seed),
        version_(blocks_),
        ts_(static_cast<std::size_t>(shape.threads)) {
    for (auto& st : ts_) st.got = st.want = std::vector<std::byte>(shape.io);
    sys_ = std::make_unique<DpcSystem>(workload_options(shape.name));
    sys_->start_dpu();
    ino_ = must(sys_->create(kRootIno, shape.file), "create").ino;
    preload(seed_, kFile, shape.io,
            [&](std::uint64_t at, std::span<std::byte> b) {
              must(sys_->write(ino_, at, b, /*direct=*/true), "preload write");
            });
  }

  int threads() const override { return shape_.threads; }
  int warmup_steps() const override { return shape_.warmup_steps; }

  void step(Client& c) override {
    auto& st = ts_[c.thread];
    if (++st.steps % (shape_.commit_every + 1) == 0) return commit(c);
    const auto n = static_cast<std::uint64_t>(shape_.threads);
    const bool hot =
        shape_.hot_percent > 0 && c.rng.percent(shape_.hot_percent);
    const std::uint64_t lo = hot ? 0 : shape_.hot_blocks;
    const std::uint64_t hi = hot ? shape_.hot_blocks : blocks_;
    const std::uint64_t block =
        lo + static_cast<std::uint64_t>(c.thread) +
        n * c.rng.below((hi - lo) / n);
    const std::uint64_t off = block * shape_.io;
    const std::string where = at_offset(off);
    if (c.rng.percent(70)) {
      const Io io = c.call(OpClass::kRead, off, [&] {
        return sys_->read(ino_, off, st.got, shape_.direct);
      });
      if (!io.ok()) return;
      c.expect_eq(io.bytes, shape_.io, "read", where, "bytes");
      fill(st.want, content_key(seed_, block, version_[block]));
      c.expect(st.got, st.want, "read", where);
      if (!io.cache_hit) {
        c.layer_peel([&] { (void)sys_->kvfs().read(ino_, off, st.got); },
                     [&] { peel_.read(c, block, st.got); });
        if (c.peeling()) peel_crc(c, st.got);
      }
    } else {
      const std::uint64_t v = version_[block] + 1;
      fill(st.want, content_key(seed_, block, v));
      const Io io = c.call(OpClass::kWrite, off, [&] {
        return sys_->write(ino_, off, st.want, shape_.direct);
      });
      require_ok(c, io, "write", where);
      c.expect_eq(io.bytes, shape_.io, "write", where, "bytes");
      st.last_block = block;
      st.last_prev = version_[block];
      version_[block] = v;
      if (!io.cache_hit) {
        c.layer_peel([&] { (void)sys_->kvfs().write(ino_, off, st.want); },
                     [&] { peel_.write(c, block, st.want); });
        if (c.peeling()) peel_crc(c, st.want);
      }
    }
  }

  void prepare_peel() override { peel_.build(blocks_, shape_.io); }

  void drop_last_write() override {
    const auto& st = ts_[0];
    if (st.last_block != kNone) version_[st.last_block] = st.last_prev;
  }

  /// Buffered workloads read back twice: what a reader sees (host cache
  /// first), then, after an fsync, what the backend holds.
  void verify() override {
    std::vector<std::byte> got(shape_.io), want(shape_.io);
    dpc::kvfs::Attr attr;
    if (!sys_->getattr(ino_, &attr).ok() || attr.size != kFile)
      report_mismatch(shape_.name, "verify-getattr", "ino", "size differs");
    for (const bool direct : {false, true}) {
      if (!direct && shape_.direct) continue;
      if (direct && !shape_.direct && !sys_->fsync(ino_).ok())
        report_mismatch(shape_.name, "verify-fsync", "ino", "fsync failed");
      for (std::uint64_t b = 0; b < blocks_; ++b) {
        const Io io = sys_->read(ino_, b * shape_.io, got, direct);
        fill(want, content_key(seed_, b, version_[b]));
        const char* op = direct ? "verify-read-direct" : "verify-read-buffered";
        if (!io.ok() || io.bytes != shape_.io || got != want)
          report_mismatch(shape_.name, op, at_offset(b * shape_.io),
                          "read-back differs from the shadow");
      }
    }
    sys_->stop_dpu();
    require_fsck_clean(shape_.name, *sys_);
  }

  double stored_bytes_per_user_byte() override {
    return static_cast<double>(sys_->kv_store().bytes_stored()) /
           static_cast<double>(kFile);
  }

 private:
  static constexpr std::uint64_t kNone = ~0ull;
  struct alignas(64) ThreadState {
    std::uint64_t steps = 0;
    std::uint64_t last_block = kNone, last_prev = 0;
    std::vector<std::byte> got, want;
  };

  void commit(Client& c) {
    dpc::kvfs::Attr attr;
    Io io = c.call(OpClass::kMeta, ino_,
                   [&] { return sys_->getattr(ino_, &attr); });
    if (io.ok()) {
      c.expect_eq(attr.size, kFile, "getattr", "ino", "size");
      c.layer_peel([&] { (void)sys_->kvfs().getattr(ino_); },
                   [&] { peel_.meta(c); });
    }
    io = c.call(OpClass::kFsync, ino_, [&] { return sys_->fsync(ino_); });
    require_ok(c, io, "fsync", "ino");
    c.layer_peel([&] { (void)sys_->kvfs().fsync(ino_); },
                 [&] { peel_.meta(c); });
  }

  const BlockFileShape shape_;
  const std::uint64_t blocks_;
  std::uint64_t seed_;
  std::uint64_t ino_ = 0;
  std::vector<std::uint64_t> version_;
  std::vector<ThreadState> ts_;
  PeelStore peel_;
};

// ------------------------------------------------------------------------
// meta-fsync-smallfile: a mail-spool loop with the NVM WAL on, 2 client
// threads. Each keeps 8192 live 4 KiB files in its own directory; together
// that is 2x the 8192-entry KVFS dentry/attr caches. One step is one
// iteration:
// create tmp, write 4 KiB, fsync, getattr, read back, rename into place,
// lookup + read of a random older file, unlink of a random older file.

class MetaFsyncSmallfile final : public Workload {
 public:
  static constexpr std::uint64_t kIo = 4096;
  static constexpr int kThreads = 2;
  static constexpr std::uint64_t kLivePerThread = 8192;

  explicit MetaFsyncSmallfile(std::uint64_t seed) : seed_(seed) {
    sys_ =
        std::make_unique<DpcSystem>(workload_options("meta-fsync-smallfile"));
    sys_->start_dpu();
    std::array<std::thread, kThreads> loaders;
    for (int t = 0; t < kThreads; ++t) {
      auto& st = ts_[t];
      st.dir = must(sys_->mkdir(kRootIno, "spool" + std::to_string(t)),
                    "mkdir")
                   .ino;
      loaders[t] = std::thread([this, t] { preload_spool(t); });
    }
    for (auto& l : loaders) l.join();
    for (const auto& st : ts_)
      if (!st.setup_error.empty()) throw std::runtime_error(st.setup_error);
  }

  int threads() const override { return kThreads; }
  int warmup_steps() const override { return 200; }

  void step(Client& c) override {
    auto& st = ts_[c.thread];
    const std::uint64_t id = st.next_id++;
    const std::string tmp = "t" + std::to_string(id);
    const std::string name = file_name(id);
    const std::string where = "dir=spool" + std::to_string(c.thread) +
                              " file=" + name + " " + at_offset(0);

    Io io = c.call(OpClass::kMeta, id,
                   [&] { return sys_->create(st.dir, tmp); });
    require_ok(c, io, "create", where);
    const std::uint64_t ino = io.ino;

    fill(st.want, key(c.thread, id));
    io = c.call(OpClass::kWrite, id,
                [&] { return sys_->write(ino, 0, st.want); });
    require_ok(c, io, "write", where);
    c.expect_eq(io.bytes, kIo, "write", where, "bytes");
    st.last_id = id;

    io = c.call(OpClass::kFsync, id, [&] { return sys_->fsync(ino); });
    require_ok(c, io, "fsync", where);
    c.layer_peel([&] { (void)sys_->kvfs().fsync(ino); },
                 [&] { peel_.meta(c); });

    dpc::kvfs::Attr attr;
    io = c.call(OpClass::kMeta, id,
                [&] { return sys_->getattr(ino, &attr); });
    if (io.ok()) {
      c.expect_eq(attr.size, kIo, "getattr", where, "size");
      c.layer_peel([&] { (void)sys_->kvfs().getattr(ino); },
                   [&] { peel_.meta(c); });
    }

    read_and_check(c, ino, id, "read", where);

    io = c.call(OpClass::kMeta, id,
                [&] { return sys_->rename(st.dir, tmp, st.dir, name); });
    require_ok(c, io, "rename", where);
    st.live.push_back(File{id, ino, true});

    // A random older file: name lookup (dentry cache) and a read (attr
    // cache and, past the host cache's reach, the DPU read path).
    const File& old = st.live[c.rng.below(st.live.size())];
    const std::string old_where = "dir=spool" + std::to_string(c.thread) +
                                  " file=" + file_name(old.id) + " " +
                                  at_offset(0);
    io = c.call(OpClass::kMeta, old.id,
                [&] { return sys_->lookup(st.dir, file_name(old.id)); });
    if (io.ok()) {
      c.expect_eq(io.ino, old.ino, "lookup", old_where, "ino");
      c.layer_peel(
          [&] { (void)sys_->kvfs().lookup(st.dir, file_name(old.id)); },
          [&] { peel_.meta(c); });
    }
    read_and_check(c, old.ino, old.id, "read", old_where);

    // Retire a random file other than the newest, keeping the live count.
    const std::size_t k = c.rng.below(st.live.size() - 1);
    const File victim = st.live[k];
    io = c.call(OpClass::kMeta, victim.id,
                [&] { return sys_->unlink(st.dir, file_name(victim.id)); });
    require_ok(c, io, "unlink",
               "dir=spool" + std::to_string(c.thread) +
                   " file=" + file_name(victim.id));
    st.live[k] = st.live.back();
    st.live.pop_back();
  }

  void prepare_peel() override { peel_.build(kLivePerThread, kIo); }

  void drop_last_write() override {
    auto& st = ts_[0];
    for (auto& f : st.live)
      if (f.id == st.last_id) f.written = false;
  }

  /// Power loss first: DPU stopped, host DRAM (cache and size view) wiped,
  /// DPU power-cycled. Every file was fsync'd before its iteration ended,
  /// so every one must come back exactly.
  void verify() override {
    sys_->stop_dpu();
    sys_->wipe_host_cache();
    const auto rep = sys_->restart_dpu();
    if (!rep.clean())
      report_mismatch("meta-fsync-smallfile", "power-loss-restart", "dpu",
                      "recovery was not clean");
    std::uint64_t kept = 0, total = 0;
    std::vector<std::byte> got(kIo), want(kIo);
    for (int t = 0; t < kThreads; ++t) {
      const auto& st = ts_[t];
      const std::string dir = "dir=spool" + std::to_string(t);
      std::vector<dpc::kvfs::DirEntry> entries;
      if (!sys_->readdir(st.dir, &entries).ok())
        report_mismatch("meta-fsync-smallfile", "verify-readdir", dir,
                        "readdir failed");
      if (entries.size() != st.live.size())
        report_mismatch("meta-fsync-smallfile", "verify-readdir", dir,
                        std::to_string(entries.size()) +
                            " entries != expected " +
                            std::to_string(st.live.size()));
      std::unordered_map<std::string, std::uint64_t> by_name;
      for (const auto& e : entries) by_name.emplace(e.name, e.ino);
      for (const auto& f : st.live) {
        ++total;
        const std::string where = dir + " file=" + file_name(f.id) + " " +
                                  at_offset(0);
        const auto it = by_name.find(file_name(f.id));
        if (it == by_name.end() || it->second != f.ino)
          report_mismatch("meta-fsync-smallfile", "verify-readdir", where,
                          "entry missing or names another inode");
        dpc::kvfs::Attr attr;
        const std::uint64_t want_size = f.written ? kIo : 0;
        if (!sys_->getattr(f.ino, &attr).ok() || attr.size != want_size)
          report_mismatch("meta-fsync-smallfile", "verify-getattr", where,
                          "size " + std::to_string(attr.size) +
                              " != expected " + std::to_string(want_size));
        const Io io = sys_->read(f.ino, 0, got, /*direct=*/true);
        fill(want, key(t, f.id));
        if (!io.ok() || io.bytes != kIo || got != want)
          report_mismatch("meta-fsync-smallfile", "verify-read", where,
                          "read-back differs from the shadow");
        ++kept;
      }
    }
    std::cerr << "power-loss: " << kept << " of " << total
              << " fsync'd files read back exactly\n";
    require_fsck_clean("meta-fsync-smallfile", *sys_);
  }

  double stored_bytes_per_user_byte() override {
    std::uint64_t files = 0;
    for (const auto& st : ts_) files += st.live.size();
    return static_cast<double>(sys_->kv_store().bytes_stored()) /
           static_cast<double>(files * kIo);
  }

 private:
  struct File {
    std::uint64_t id = 0;
    std::uint64_t ino = 0;
    bool written = true;
  };
  struct alignas(64) ThreadState {
    std::uint64_t dir = 0;
    std::uint64_t next_id = 0;
    std::uint64_t last_id = ~0ull;
    std::vector<File> live;
    std::vector<std::byte> got = std::vector<std::byte>(kIo);
    std::vector<std::byte> want = std::vector<std::byte>(kIo);
    std::string setup_error;
  };

  static std::string file_name(std::uint64_t id) {
    return "m" + std::to_string(id);
  }
  std::uint64_t key(int thread, std::uint64_t id) const {
    return content_key(seed_, (static_cast<std::uint64_t>(thread) << 40) | id,
                       0);
  }

  void preload_spool(int t) {
    auto& st = ts_[t];
    st.live.reserve(kLivePerThread + 1);
    std::vector<std::byte> buf(kIo);
    for (; st.next_id < kLivePerThread; ++st.next_id) {
      const Io c = sys_->create(st.dir, file_name(st.next_id));
      fill(buf, key(t, st.next_id));
      if (!c.ok() || !sys_->write(c.ino, 0, buf, /*direct=*/true).ok()) {
        st.setup_error = "set-up: spool preload failed";
        return;
      }
      st.live.push_back(File{st.next_id, c.ino, true});
    }
  }

  void read_and_check(Client& c, std::uint64_t ino, std::uint64_t id,
                      const char* op, const std::string& where) {
    auto& st = ts_[c.thread];
    const Io io =
        c.call(OpClass::kRead, id, [&] { return sys_->read(ino, 0, st.got); });
    if (!io.ok()) return;
    fill(st.want, key(c.thread, id));
    c.expect_eq(io.bytes, kIo, op, where, "bytes");
    c.expect(st.got, st.want, op, where);
    if (!io.cache_hit)
      c.layer_peel([&] { (void)sys_->kvfs().read(ino, 0, st.got); },
                   [&] { peel_.read(c, id, st.got); });
  }

  std::uint64_t seed_;
  std::array<ThreadState, kThreads> ts_;
  PeelStore peel_;
};

// ------------------------------------------------------------------------
// dfs-ec-1m: 1 MiB dfs_write/dfs_read (50/50) on a 64 MiB DFS file, RS(4,2)
// with 8 KiB units over 8 data servers, 1 client thread; every 16 data ops
// a commit point (dfs_open of the path + fsync of the job's KVFS directory).

class DfsEc1m final : public Workload {
 public:
  static constexpr std::uint64_t kIo = kMiB;
  static constexpr std::uint64_t kFile = 64 * kMiB;
  static constexpr std::uint64_t kChunks = kFile / kIo;
  static constexpr int kCommitEvery = 16;
  static constexpr const char* kPath = "/bench/ec.dat";

  explicit DfsEc1m(std::uint64_t seed) : seed_(seed), version_(kChunks) {
    sys_ = std::make_unique<DpcSystem>(workload_options("dfs-ec-1m"));
    sys_->start_dpu();
    job_dir_ = must(sys_->mkdir(kRootIno, "dfs-job"), "mkdir").ino;
    ino_ = must(sys_->dfs_create(kPath, kFile), "dfs_create").ino;
    preload(seed_, kFile, kIo, [&](std::uint64_t at, std::span<std::byte> b) {
      must(sys_->dfs_write(ino_, at, b), "preload dfs_write");
    });
  }

  int threads() const override { return 1; }
  int warmup_steps() const override { return 16; }

  void step(Client& c) override {
    auto& st = ts_;
    if (++st.data_ops % (kCommitEvery + 1) == 0) return commit(c);
    const std::uint64_t chunk = c.rng.below(kChunks);
    const std::uint64_t off = chunk * kIo;
    if (c.rng.percent(50)) {
      const Io io = c.call(OpClass::kRead, off, [&] {
        return sys_->dfs_read(ino_, off, st.got);
      });
      if (!io.ok()) return;
      c.expect_eq(io.bytes, kIo, "dfs_read", at_offset(off), "bytes");
      fill(st.want, content_key(seed_, chunk, version_[chunk]));
      c.expect(st.got, st.want, "dfs_read", at_offset(off));
      if (c.peeling()) peel_ec(c, st.got, /*read=*/true);
    } else {
      const std::uint64_t v = version_[chunk] + 1;
      fill(st.want, content_key(seed_, chunk, v));
      const Io io = c.call(OpClass::kWrite, off, [&] {
        return sys_->dfs_write(ino_, off, st.want);
      });
      require_ok(c, io, "dfs_write", at_offset(off));
      c.expect_eq(io.bytes, kIo, "dfs_write", at_offset(off), "bytes");
      st.last_chunk = chunk;
      st.last_prev = version_[chunk];
      version_[chunk] = v;
      if (c.peeling()) peel_ec(c, st.want, /*read=*/false);
    }
  }

  void drop_last_write() override {
    if (ts_.last_chunk != kNone) version_[ts_.last_chunk] = ts_.last_prev;
  }

  void verify() override {
    std::vector<std::byte> got(kIo), want(kIo);
    for (std::uint64_t ch = 0; ch < kChunks; ++ch) {
      const Io io = sys_->dfs_read(ino_, ch * kIo, got);
      fill(want, content_key(seed_, ch, version_[ch]));
      if (!io.ok() || io.bytes != kIo || got != want)
        report_mismatch("dfs-ec-1m", "verify-dfs_read", at_offset(ch * kIo),
                        "read-back differs from the shadow");
    }
    sys_->stop_dpu();
    require_fsck_clean("dfs-ec-1m", *sys_);
  }

  /// KV store plus every stored DFS shard (data and parity).
  double stored_bytes_per_user_byte() override {
    const auto shards = sys_->data_servers()->stored_shards().size();
    constexpr std::uint64_t kUnit = 8192;
    return static_cast<double>(sys_->kv_store().bytes_stored() +
                               shards * kUnit) /
           static_cast<double>(kFile);
  }

 private:
  static constexpr std::uint64_t kNone = ~0ull;
  struct ThreadState {
    std::uint64_t data_ops = 0;
    std::uint64_t last_chunk = kNone, last_prev = 0;
    std::vector<std::byte> got = std::vector<std::byte>(kIo);
    std::vector<std::byte> want = std::vector<std::byte>(kIo);
  };

  void commit(Client& c) {
    Io io = c.call(OpClass::kMeta, ino_, [&] { return sys_->dfs_open(kPath); });
    if (io.ok()) c.expect_eq(io.ino, ino_, "dfs_open", kPath, "ino");
    io = c.call(OpClass::kFsync, job_dir_,
                [&] { return sys_->fsync(job_dir_); });
    require_ok(c, io, "fsync", "dir=dfs-job");
  }

  std::uint64_t seed_;
  std::uint64_t ino_ = 0;
  std::uint64_t job_dir_ = 0;
  std::vector<std::uint64_t> version_;
  ThreadState ts_;
};

}  // namespace

DpcOptions workload_options(const std::string& name) {
  DpcOptions o;  // queues 4, depth 16, max_io 1 MiB, 2 DPU workers,
                 // 4096-page (16 MiB) write-back host cache, DFS on.
  if (name == "meta-fsync-smallfile") o.enable_nvm_wal = true;
  return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == kKvfsDirect8k.name)
    return std::make_unique<BlockFile>(kKvfsDirect8k, seed);
  if (name == kCacheBufferedHot.name)
    return std::make_unique<BlockFile>(kCacheBufferedHot, seed);
  if (name == "meta-fsync-smallfile")
    return std::make_unique<MetaFsyncSmallfile>(seed);
  if (name == "dfs-ec-1m") return std::make_unique<DfsEc1m>(seed);
  return nullptr;
}

}  // namespace perfbench
