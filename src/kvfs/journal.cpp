#include "kvfs/journal.hpp"

#include <cstring>
#include <optional>
#include <set>

#include "ec/crc32c.hpp"
#include "nvm/wal.hpp"

namespace dpc::kvfs {

namespace {

void put_u8(kv::Bytes& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}

void put_u32(kv::Bytes& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void put_u64(kv::Bytes& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void put_str(kv::Bytes& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  const std::size_t at = out.size();
  out.resize(at + s.size());
  std::memcpy(out.data() + at, s.data(), s.size());
}

/// Bounds-checked cursor over a record payload; any short read poisons the
/// whole decode (a truncated record must not half-parse).
struct Reader {
  const kv::Bytes& v;
  std::size_t at;
  bool ok = true;

  bool take(void* dst, std::size_t n) {
    if (!ok || v.size() - at < n) return ok = false;
    std::memcpy(dst, v.data() + at, n);
    at += n;
    return true;
  }
  std::uint8_t u8() {
    std::uint8_t x = 0;
    take(&x, sizeof(x));
    return x;
  }
  std::uint32_t u32() {
    std::uint32_t x = 0;
    take(&x, sizeof(x));
    return x;
  }
  std::uint64_t u64() {
    std::uint64_t x = 0;
    take(&x, sizeof(x));
    return x;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok || v.size() - at < n) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(v.data() + at), n);
    at += n;
    return s;
  }
};

}  // namespace

kv::Bytes encode_journal_record(const JournalRecord& rec) {
  kv::Bytes out;
  out.resize(sizeof(std::uint32_t));  // CRC placeholder, filled last
  put_u8(out, static_cast<std::uint8_t>(rec.op));
  put_u32(out, static_cast<std::uint32_t>(rec.type));
  put_u64(out, rec.ino);
  put_u64(out, rec.parent);
  put_u64(out, rec.new_parent);
  put_u64(out, rec.replaced_ino);
  put_u32(out, rec.nlink_before);
  put_u8(out, rec.big_file);
  put_u8(out, rec.replaced_big);
  put_str(out, rec.name);
  put_str(out, rec.name2);
  put_u32(out, static_cast<std::uint32_t>(rec.blocks.size()));
  for (const std::uint64_t b : rec.blocks) put_u64(out, b);
  const std::uint32_t crc = ec::crc32c(
      std::span<const std::byte>(out).subspan(sizeof(std::uint32_t)));
  std::memcpy(out.data(), &crc, sizeof(crc));
  return out;
}

namespace {

std::optional<JournalRecord> decode_journal_record(const kv::Bytes& v) {
  if (v.size() < sizeof(std::uint32_t)) return std::nullopt;
  std::uint32_t stored = 0;
  std::memcpy(&stored, v.data(), sizeof(stored));
  const std::uint32_t actual = ec::crc32c(
      std::span<const std::byte>(v).subspan(sizeof(std::uint32_t)));
  if (stored != actual) return std::nullopt;

  Reader r{v, sizeof(std::uint32_t)};
  JournalRecord rec;
  rec.op = static_cast<JournalOp>(r.u8());
  rec.type = static_cast<FileType>(r.u32());
  rec.ino = r.u64();
  rec.parent = r.u64();
  rec.new_parent = r.u64();
  rec.replaced_ino = r.u64();
  rec.nlink_before = r.u32();
  rec.big_file = r.u8();
  rec.replaced_big = r.u8();
  rec.name = r.str();
  rec.name2 = r.str();
  const std::uint32_t n = r.u32();
  if (r.ok && n <= (v.size() - r.at) / sizeof(std::uint64_t)) {
    rec.blocks.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) rec.blocks.push_back(r.u64());
  } else {
    r.ok = false;
  }
  if (!r.ok || r.at != v.size()) return std::nullopt;
  if (rec.op < JournalOp::kCreate || rec.op > JournalOp::kExtent)
    return std::nullopt;
  return rec;
}

}  // namespace

IntentJournal::IntentJournal(kv::RemoteKv& store, obs::Registry& registry,
                             fault::FaultInjector* fault,
                             nvm::WriteAheadLog* wal)
    : store_(&store),
      registry_(&registry),
      fault_(fault),
      wal_(wal),
      appends_(registry.counter("kvfs.journal/appends")),
      commits_(registry.counter("kvfs.journal/commits")),
      append_fails_(registry.counter("kvfs.journal/append_fails")),
      commit_fails_(registry.counter("kvfs.journal/commit_fails")),
      wal_appends_(registry.counter("kvfs.journal/wal_appends")) {}

IntentTicket IntentJournal::begin(const JournalRecord& rec,
                                  sim::Nanos& cost) {
  // Record ids share the ino counter: one increment primitive, globally
  // unique across mounts, no extra persistent key. A failed allocation or
  // append aborts the op before it mutates anything.
  const auto id = store_->increment(ino_counter_key(), 1);
  cost += id.cost;
  if (!id.ok()) {
    append_fails_.add();
    return {};
  }
  IntentTicket ticket{id.value, false};
  const kv::Bytes payload = encode_journal_record(rec);
  // A full/faulting log falls through to the KV path — the record must be
  // durable *somewhere* before the op's first mutation.
  if (wal_ != nullptr && !wal_->degraded() &&
      wal_->append_intent(id.value, payload, cost) == nvm::AppendStatus::kOk) {
    ticket.in_wal = true;
    wal_appends_.add();
  } else {
    const auto put = store_->put(journal_key(id.value), payload);
    cost += put.cost;
    if (!put.ok()) {
      append_fails_.add();
      return {};
    }
  }
  appends_.add();
  fault::crash_point(fault_, kCrashAfterAppend);
  return ticket;
}

void IntentJournal::commit(const IntentTicket& ticket, sim::Nanos& cost) {
  if (!ticket) return;
  bool ok = false;
  if (ticket.in_wal) {
    ok = wal_->append_intent_commit(ticket.id, cost) == nvm::AppendStatus::kOk;
  } else {
    const auto er = store_->erase(journal_key(ticket.id));
    cost += er.cost;
    ok = er.ok();
  }
  // A failed commit is tolerated: the record stays open and replay
  // re-probes the (now complete) op, finding nothing left to do.
  if (ok) {
    commits_.add();
  } else {
    commit_fails_.add();
  }
}

// ---------------------------------------------------------------- replay

namespace {

/// Replay-side raw-store access: recovery runs below the fault injector, so
/// probes and fixes hit the store directly but still charge modelled remote
/// round trips (the replay cost the recovery histogram reports).
struct Raw {
  kv::KvStore& kv;
  sim::Nanos cost{};

  std::optional<kv::Bytes> get(const std::string& key) {
    auto v = kv.get(key);
    cost += kv::RemoteKv::op_cost(true, v ? v->size() : 0);
    return v;
  }
  bool contains(const std::string& key) {
    cost += kv::RemoteKv::op_cost(true, 0);
    return kv.contains(key);
  }
  void put(const std::string& key, std::span<const std::byte> v) {
    cost += kv::RemoteKv::op_cost(false, v.size());
    kv.put(key, v);
  }
  void erase(const std::string& key) {
    cost += kv::RemoteKv::op_cost(false, 0);
    kv.erase(key);
  }
};

/// Drops every data KV an inode may own (small value, extent object and its
/// blocks). Used when replay must finish a half-done delete.
void purge_data(Raw& raw, Ino ino) {
  raw.erase(small_key(ino));
  if (const auto obj = raw.get(big_object_key(ino))) {
    const FileObject fo = decode_file_object(*obj);
    for (const std::uint64_t b : fo.blocks)
      if (b != 0) raw.erase(block_key(b));
    raw.erase(big_object_key(ino));
  }
}

/// True if `key` is a dentry that still resolves to `ino`.
bool dentry_is(Raw& raw, const std::string& key, Ino ino) {
  const auto v = raw.get(key);
  return v && v->size() == sizeof(Ino) && decode_ino(*v) == ino;
}

/// Roll one decoded record forward or backward. Returns true when the op was
/// completed (forward), false when undone (backward). Every path is
/// idempotent: replaying the same record twice is a no-op the second time.
bool replay_one(Raw& raw, const JournalRecord& rec) {
  switch (rec.op) {
    case JournalOp::kCreate: {
      // Mutation order was dentry → attr → (symlink target) → parent attr.
      const std::string dkey = inode_key(rec.parent, rec.name);
      if (!dentry_is(raw, dkey, rec.ino)) {
        // Never linked in (or the name belongs to someone else, meaning the
        // op lost an EEXIST race): scrub anything written for this ino.
        raw.erase(attr_key(rec.ino));
        raw.erase(small_key(rec.ino));
        return false;
      }
      const auto av = raw.get(attr_key(rec.ino));
      if (!av) {
        // Linked but attributeless — the dangerous half-state fsck flags as
        // a dangling dentry. Undo the link.
        raw.erase(dkey);
        raw.erase(small_key(rec.ino));
        return false;
      }
      // Node fully exists: finish the tail the crash may have cut off.
      Attr a = decode_attr(*av);
      if (rec.type == FileType::kSymlink) {
        const kv::Bytes target = kv::to_bytes(rec.name2);
        raw.put(small_key(rec.ino), target);
        if (a.size != target.size()) {
          a.size = target.size();
          raw.put(attr_key(rec.ino), encode_attr(a));
        }
      }
      // Parent nlink/mtime normalization is fsck_repair's job (it recomputes
      // link counts globally, which one record cannot).
      return true;
    }

    case JournalOp::kRemove: {
      // Mutation order was dentry erase → attr update/purge → parent attr.
      const std::string dkey = inode_key(rec.parent, rec.name);
      if (dentry_is(raw, dkey, rec.ino)) return false;  // never started
      if (rec.type != FileType::kDirectory && rec.nlink_before > 1) {
        // Hard link removal: only the link count drops.
        if (const auto av = raw.get(attr_key(rec.ino))) {
          Attr a = decode_attr(*av);
          if (a.nlink == rec.nlink_before) {
            a.nlink = rec.nlink_before - 1;
            raw.put(attr_key(rec.ino), encode_attr(a));
          }
        }
      } else {
        purge_data(raw, rec.ino);
        raw.erase(attr_key(rec.ino));
      }
      return true;
    }

    case JournalOp::kRename: {
      // Always forward: the destination purge may already be half done, so
      // the old world is unrecoverable — completing the move is the only
      // consistent end state.
      if (rec.replaced_ino != 0) {
        purge_data(raw, rec.replaced_ino);
        raw.erase(attr_key(rec.replaced_ino));
      }
      const std::string src = inode_key(rec.parent, rec.name);
      const std::string dst = inode_key(rec.new_parent, rec.name2);
      const kv::Bytes ino_v = encode_ino(rec.ino);
      raw.put(dst, ino_v);
      if (src != dst && dentry_is(raw, src, rec.ino)) raw.erase(src);
      return true;
    }

    case JournalOp::kPromote: {
      // Mutation order was block data → object put → small erase → flag set.
      // The object put is the commit point: present means the extent index
      // took over, absent means the small value is still authoritative.
      if (raw.contains(big_object_key(rec.ino))) {
        raw.erase(small_key(rec.ino));
        if (const auto av = raw.get(attr_key(rec.ino))) {
          Attr a = decode_attr(*av);
          if (a.big_file == 0) {
            a.big_file = 1;
            raw.put(attr_key(rec.ino), encode_attr(a));
          }
        }
        return true;
      }
      for (const std::uint64_t b : rec.blocks)
        if (b != 0) raw.erase(block_key(b));
      return false;
    }

    case JournalOp::kExtent: {
      // Pre-allocated block ids for one big-file write. The object put is
      // again the commit point; an object referencing the new ids means the
      // write landed, otherwise the ids are orphan blocks to reclaim.
      bool referenced = false;
      if (const auto ov = raw.get(big_object_key(rec.ino))) {
        const FileObject fo = decode_file_object(*ov);
        for (const std::uint64_t want : rec.blocks) {
          for (const std::uint64_t have : fo.blocks) {
            if (want != 0 && want == have) {
              referenced = true;
              break;
            }
          }
          if (referenced) break;
        }
      }
      if (referenced) return true;
      for (const std::uint64_t b : rec.blocks)
        if (b != 0) raw.erase(block_key(b));
      return false;
    }
  }
  return false;
}

}  // namespace

JournalReplayReport IntentJournal::replay(
    std::span<const nvm::WalRecord> wal_log, bool crash_points) {
  JournalReplayReport rep;
  kv::KvStore& raw_store = store_->store();
  Raw raw{raw_store};

  // Gather the open records of both media first: replay mutates the store,
  // and scan_prefix holds shard locks during the visit. A WAL intent is
  // open while no later kIntentCommit names its id; every 'J' key is open.
  // WAL records carry no key: the log checkpoint retires them.
  std::set<std::uint64_t> committed;
  for (const auto& r : wal_log)
    if (r.kind == nvm::RecordKind::kIntentCommit) committed.insert(r.a);
  std::vector<std::pair<std::string, kv::Bytes>> records;
  for (const auto& r : wal_log)
    if (r.kind == nvm::RecordKind::kIntent && committed.count(r.a) == 0)
      records.emplace_back(std::string(), r.data);
  raw_store.scan_prefix(
      journal_key_prefix(),
      [&](std::string_view key, const kv::Bytes& value) {
        records.emplace_back(std::string(key), value);
        raw.cost += kv::RemoteKv::op_cost(true, value.size());
        return true;
      });

  for (const auto& [key, value] : records) {
    ++rep.scanned;
    const auto rec = decode_journal_record(value);
    if (!rec) {
      ++rep.corrupt;
    } else if (replay_one(raw, *rec)) {
      ++rep.rolled_forward;
    } else {
      ++rep.rolled_back;
    }
    // Crash window between applying a record and retiring it: the second
    // replay re-finds this record and replay_one converges (idempotent).
    if (crash_points) fault::crash_point(fault_, kCrashMidReplay);
    if (!key.empty()) raw.erase(key);
  }
  rep.cost = raw.cost;

  if (rep.scanned > 0) {
    // Recovery path — runs once per mount / DPU restart, not per op.
    // dpc-lint: ok(hot-path-lookup) recovery-only
    registry_->counter("kvfs.journal/replays").add(rep.rolled_forward);
    // dpc-lint: ok(hot-path-lookup) recovery-only
    registry_->counter("kvfs.journal/rollbacks").add(rep.rolled_back);
    // dpc-lint: ok(hot-path-lookup) recovery-only
    registry_->counter("kvfs.journal/corrupt").add(rep.corrupt);
  }
  return rep;
}

}  // namespace dpc::kvfs
