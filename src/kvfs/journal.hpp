// KVFS write-ahead intent log (crash consistency).
//
// KVFS spreads one mutation across several KV flavors with no multi-key
// atomicity, so a DPU crash mid-operation leaves the keyspace torn (dangling
// dentries, orphan data, a promotion half done). Before its first mutating
// KV op, every multi-KV mutation appends one CRC32C-protected *intent*
// record describing the whole op; after the last mutating op the record is
// committed. Replay scans the surviving records, probes the keyspace to see
// how far each op got, and rolls it forward (completes it) or backward
// (undoes it) — either way the op ends all-or-nothing. `fsck_repair` runs
// after replay as the backstop that renormalizes what intent records cannot
// know (parent link counts, stray residue).
//
// One log, two media. With the NVM write-ahead log attached and healthy, a
// record rides it as a kIntent frame and commits with a kIntentCommit
// marker: one local persist instead of a remote KV round trip. Otherwise
// (no NVM, or the WAL latched degraded) the record is a KV put under tag
// 'J' + be64 id, and commit erases it; such records are exactly as durable
// as the state they protect, and shared mounts recover each other. begin()
// hands back a ticket naming the medium, and commit() follows it. One
// replay() gathers the open records of both media and rolls them in one
// loop. Record ids come from the ino counter: globally unique, allocated
// with the same increment primitive as inodes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "kv/remote.hpp"
#include "kvfs/types.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace dpc::nvm {
class WriteAheadLog;
struct WalRecord;
}  // namespace dpc::nvm

namespace dpc::kvfs {

/// Crash point inside the journal itself: fires right after the intent
/// record is durable but before the op's first real mutation.
inline constexpr std::string_view kCrashAfterAppend =
    "kvfs.journal/crash_after_append";
/// Crash point inside replay: fires after a record has been rolled
/// forward/backward but before it is retired (KV erase / WAL checkpoint) —
/// the second replay must find the half-replayed log and converge (every
/// replay_one path is idempotent).
inline constexpr std::string_view kCrashMidReplay =
    "kvfs.journal/crash_mid_replay";

enum class JournalOp : std::uint8_t {
  kCreate = 1,  ///< create / mkdir / symlink (make_node + symlink target)
  kRemove = 2,  ///< unlink / rmdir
  kRename = 3,
  kPromote = 4,  ///< small→big promotion (§3.4)
  kExtent = 5,   ///< big-file extent update: new blocks added to the object
};

/// One intent record. Field use by op:
///   kCreate : ino, parent, name, type; name2 = symlink target (if symlink)
///   kRemove : ino, parent, name, type, nlink_before, big_file
///   kRename : ino (source), parent (old), name (old), new_parent,
///             name2 (new), replaced_ino (+replaced_big) if dst was purged
///   kPromote: ino, blocks = {the single data block} (empty if file empty)
///   kExtent : ino, blocks = block ids newly allocated for this write
struct JournalRecord {
  JournalOp op = JournalOp::kCreate;
  FileType type = FileType::kRegular;
  Ino ino = 0;
  Ino parent = 0;
  Ino new_parent = 0;
  Ino replaced_ino = 0;
  std::uint32_t nlink_before = 0;
  std::uint8_t big_file = 0;
  std::uint8_t replaced_big = 0;
  std::string name;
  std::string name2;
  std::vector<std::uint64_t> blocks;
};

/// Record codec: [crc32c(4) | payload]. The CRC covers the payload, so a
/// torn/corrupt record fails to decode and replay skips (counts) it.
kv::Bytes encode_journal_record(const JournalRecord& rec);

/// Where begin() put an intent record; commit() follows it to the same
/// medium. An empty ticket (id 0) names no record: commit() ignores it.
struct IntentTicket {
  std::uint64_t id = 0;
  bool in_wal = false;  ///< kIntent frame in the NVM log, else a 'J' KV key

  explicit operator bool() const { return id != 0; }
};

/// One replay pass over the open records of both media.
struct JournalReplayReport {
  std::uint64_t scanned = 0;         ///< open records found (WAL + KV)
  std::uint64_t rolled_forward = 0;  ///< ops completed by replay
  std::uint64_t rolled_back = 0;     ///< ops undone by replay
  std::uint64_t corrupt = 0;         ///< CRC-failed records dropped
  sim::Nanos cost{};                 ///< modelled remote-KV cost of replay
};

class IntentJournal {
 public:
  /// `registry` hosts the kvfs.journal/* counters (required). `fault`
  /// (optional) enables the append and replay crash points. `wal`
  /// (optional) is the NVM log records ride while it is not degraded.
  IntentJournal(kv::RemoteKv& store, obs::Registry& registry,
                fault::FaultInjector* fault, nvm::WriteAheadLog* wal);

  /// Appends an intent record before the op's first mutation: to the WAL
  /// when attached and not degraded, else (or when that append fails) to
  /// the KV store, so write-ahead semantics never lapse. Returns an empty
  /// ticket if no medium took it — the caller must abort the op (EIO)
  /// without mutating anything.
  IntentTicket begin(const JournalRecord& rec, sim::Nanos& cost);

  /// Commits the record after the op's last mutation, on the medium the
  /// ticket names (kIntentCommit marker or KV erase). A failed commit is
  /// harmless (the record survives; replay re-probes and finds the op
  /// complete) so commit never fails the op.
  void commit(const IntentTicket& ticket, sim::Nanos& cost);

  /// Rolls every open record of both media against the raw store: the
  /// kIntent frames of `wal_log` (a WriteAheadLog::recover() scan) with no
  /// kIntentCommit, then every 'J' key. Rolled KV records are erased; WAL
  /// ones stay until the caller checkpoints the log. Runs on the recovery
  /// path (mount / DPU restart): bypasses fault injection and retries —
  /// recovery is not itself injectable — but charges modelled remote-KV
  /// round-trip costs for every probe and fix. Callers must ensure no
  /// concurrent mutation. `crash_points` arms kCrashMidReplay (off at
  /// mount, where a crash would escape the constructor).
  JournalReplayReport replay(std::span<const nvm::WalRecord> wal_log,
                             bool crash_points);

 private:
  kv::RemoteKv* store_;
  obs::Registry* registry_;
  fault::FaultInjector* fault_;
  nvm::WriteAheadLog* wal_;
  obs::Counter& appends_;
  obs::Counter& commits_;
  obs::Counter& append_fails_;
  obs::Counter& commit_fails_;
  obs::Counter& wal_appends_;
};

}  // namespace dpc::kvfs
