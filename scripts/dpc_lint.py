#!/usr/bin/env python3
"""dpc_lint — protocol linter for the DPC tree (AST engine + regex fallback).

Checks invariants that neither the compiler nor clang-tidy can see because
they are conventions of this codebase, not of C++:

  raw-mutex         std::mutex / std::shared_mutex declared outside the
                    annotated wrappers (sim/thread_annotations.hpp). Raw
                    mutexes bypass both the Clang thread-safety annotations
                    and the runtime lock-rank detector.
  raw-guard         std::lock_guard / std::unique_lock / std::shared_lock /
                    std::scoped_lock outside the wrapper header. The sim::
                    guards carry the SCOPED_CAPABILITY annotations; the std
                    ones are invisible to the analysis.
  doorbell-fence    a doorbell MMIO (`->doorbell(`) with no preceding
                    publish in the lookback window — a plain or release
                    store / DMA write of the descriptor the doorbell
                    advertises. Producer-side doorbells that follow this
                    protocol are readable at a glance; consumer-side ones
                    (CQ head updates) must say so with a suppression.
  sqe-encode        writes to SQE fields outside the encode_*/decode_*
                    helpers in nvme/spec.cpp. All wire-format knowledge
                    lives in one file.
  hot-path-lookup   registry name-lookups fused with a record/add call
                    (`registry.histogram("x").record(...)`): each lookup
                    takes the registry's shared lock and hashes the name.
                    Hot paths must cache the instrument pointer at
                    construction. Recovery-only paths may suppress.
  wall-clock        std::chrono::system_clock / high_resolution_clock
                    anywhere (the simulation is Date-free; modelled time is
                    sim::Nanos), and steady_clock inside src/sim/ itself —
                    the time model must not read real clocks.
  checksum-stamp    inside the checksummed stores (ssd/ssd.cpp,
                    kv/kv_store.cpp, dfs/backend.cpp): a memcpy whose
                    *destination* is a stored object's payload (`….data`)
                    with no CRC restamp (`stamp_*_crc` / `.crc =`) within a
                    few lines. Mutating stored bytes without restamping
                    makes the integrity envelope read the write back as
                    bit-rot — every payload mutation goes through the stamp
                    helper.
  lockfree-mutex    a mutex acquisition (sim:: or std:: guard, or a bare
                    .lock()/lock_bucket() call) inside a region marked
                    `// dpc-lint: lockfree-begin(<tag>)` ...
                    `// dpc-lint: lockfree-end(<tag>)`. Those regions are
                    the converted seqlock read paths; reintroducing a lock
                    there silently reverts the optimization and can invert
                    lock ordering relative to the locked fallback below the
                    region.
  tenant-id         a default-constructed NvmeFsCmd / IniDriver::Request
                    with no `.tenant` assignment in the following lines.
                    Every nvme-fs command carries the issuing tenant in
                    DW10[31:24]; a site that forgets the stamp silently
                    bills its I/O to tenant 0 and escapes QoS accounting.
                    Deliberately single-tenant sites stamp `.tenant = 0`
                    with a comment (or suppress).
  wal-commit-order  inside src/nvm/: a `publish_commit_word(` call with no
                    `persist_fence(` in the preceding lines. The WAL's
                    crash-consistency contract is data-before-commit — the
                    payload must be fenced durable on the NVM device
                    *before* the commit word that validates it is written,
                    or a power cut can leave a committed frame whose bytes
                    never landed. The scan cannot detect that case (the
                    commit CRC covers what was fenced-in-DRAM, not what
                    reached media), so the ordering is enforced lexically.

Protocol rules with an AST implementation (libclang over the CMake compile
database) and a weaker regex fallback when libclang is absent:

  lock-across-wait  a sim:: lock guard held across a modelled-time wait —
                    IniDriver::wait(), a DMA transfer/read_host/write_host
                    burst. Those calls spin or charge modelled nanoseconds;
                    holding a lock across them serializes unrelated
                    threads behind a device-speed operation and (under the
                    checker) turns a bounded scenario into a livelock.
  wall-clock-reachable
                    [AST only] a function in modelled-time code (signature
                    carries sim::Nanos) that transitively reaches a
                    wall-clock read. The per-line wall-clock rule sees the
                    read itself; this one catches laundering it through a
                    helper in the same translation unit.
  sqe-tenant-drop   an SQE builder (a function named encode_* taking a
                    *Cmd parameter) whose body never references the
                    command's tenant field — the wire slot DW10[31:24]
                    silently encodes tenant 0 and QoS attribution is lost.
  persist-pair      within one function in src/nvm/: more
                    publish_commit_word() calls than persist_fence() calls.
                    Complements wal-commit-order (which is window-local):
                    a function that publishes two commit words over one
                    fence has an unfenced payload no matter how the lines
                    are arranged.

Meta rule:

  stale-suppression a `// dpc-lint: ok(<rule>)` comment that suppressed
                    nothing in this run — the offending code was fixed or
                    moved, and the suppression now only misleads readers.
                    (Only reported for rules the active engine fully
                    checks, so a regex-only run never calls an AST-rule
                    suppression stale.)

Suppression: append `// dpc-lint: ok(<rule>) <reason>` to the offending
line, or place it on the line directly above.

Self-test: `--selftest` lints the committed negative fixtures under
tests/lint_fixtures/ and requires that exactly the `// expect: <rule>`
(and, when the AST engine is active, `// expect-ast: <rule>`) annotations
fire — the linter proves its own teeth the same way dpc_check's mutation
tier does.

Exit status: 0 = clean, 1 = findings, 2 = usage/environment error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = REPO / "tests" / "lint_fixtures"

# Files that are allowed to spell std::mutex / std guards: the wrapper layer
# itself and the detector underneath it.
WRAPPER_FILES = {
    "src/sim/thread_annotations.hpp",
    "src/sim/lockrank.hpp",
    "src/sim/lockrank.cpp",
}

SUPPRESS_RE = re.compile(r"//\s*dpc-lint:\s*ok\((?P<rules>[\w ,-]+)\)")
EXPECT_RE = re.compile(r"//\s*expect(?P<ast>-ast)?:\s*(?P<rules>[\w ,-]+)")

RAW_MUTEX_RE = re.compile(r"\bstd::(?:recursive_)?(?:shared_|timed_)?mutex\b")
RAW_GUARD_RE = re.compile(
    r"\bstd::(?:lock_guard|scoped_lock|unique_lock|shared_lock)\b")
DOORBELL_RE = re.compile(r"(?:->|\.)doorbell\(")
# A "publish" before the doorbell: any store into host/guest memory, a
# release-ordered atomic store, or an explicit fence.
PUBLISH_RE = re.compile(
    r"\.store\(|\.store<|host\.write\(|write_host\(|atomic_thread_fence")
DOORBELL_LOOKBACK = 15
SQE_WRITE_RE = re.compile(r"\bsqe(?:\.|->)\w+\s*(?:[|&+-]?=)[^=]")
HOT_LOOKUP_RE = re.compile(
    r"\b(?:histogram|counter|gauge)\(\s*\"[^\"]*\"\s*\)\s*\.\s*"
    r"(?:record|add|inc|set)\s*\(")
WALL_CLOCK_RE = re.compile(
    r"\bstd::chrono::(?:system_clock|high_resolution_clock)\b")
SIM_STEADY_RE = re.compile(r"\bstd::chrono::steady_clock\b")

# The files whose stored payloads carry CRCs, and the restamp idioms.
CHECKSUM_STORE_FILES = {
    "src/ssd/ssd.cpp",
    "src/kv/kv_store.cpp",
    "src/dfs/backend.cpp",
}
MEMCPY_CALL_RE = re.compile(r"\bmemcpy\(\s*(?P<dest>[^,]*)")
STORED_PAYLOAD_RE = re.compile(r"\.\s*data\s*\.\s*data\s*\(")
STAMP_RE = re.compile(r"\bstamp_\w+_crc\b|\.crc\s*=")
STAMP_WINDOW = 4

# Lock-free region markers and what counts as "taking a lock" inside one:
# the annotated sim:: guards, the std:: guards (already flagged elsewhere,
# but doubly wrong here), and bare .lock()/lock_bucket()-style calls.
LOCKFREE_BEGIN_RE = re.compile(r"//\s*dpc-lint:\s*lockfree-begin\((?P<tag>[\w-]+)\)")
LOCKFREE_END_RE = re.compile(r"//\s*dpc-lint:\s*lockfree-end\((?P<tag>[\w-]+)\)")
LOCK_ACQUIRE_RE = re.compile(
    r"\bsim::(?:LockGuard|UniqueLock|SharedLockGuard)\b"
    r"|\bstd::(?:lock_guard|scoped_lock|unique_lock|shared_lock)\b"
    r"|(?:\.|->)lock\s*\(|\block_bucket\s*\(|\block_entry\s*\(")

# Default-constructed command/request objects that carry a tenant id on the
# wire. The stamp must appear within the window (the spec.cpp decode helper
# fills every field and lands its tenant line 15 rows below the decl).
TENANT_DECL_RE = re.compile(
    r"\b(?:nvme::)?(?:NvmeFsCmd|IniDriver::Request)\s+(?P<var>\w+)\s*;")
TENANT_WINDOW = 16

# WAL write-ahead ordering: a commit-word publish must follow a persist
# fence of the payload it validates. The lookbehind skips the method's own
# definition (`…::publish_commit_word(`); declarations (`bool publish_…`)
# are skipped by the `bool` guard at the check site.
WAL_COMMIT_RE = re.compile(r"(?<!:)\bpublish_commit_word\s*\(")
WAL_COMMIT_DECL_RE = re.compile(r"\bbool\s+publish_commit_word\b")
WAL_FENCE_RE = re.compile(r"\bpersist_fence\s*\(")
WAL_COMMIT_LOOKBACK = 15

# lock-across-wait (regex fallback): a sim:: guard declaration, then — while
# its scope is still open — a modelled-time wait: IniDriver::wait() or a DMA
# burst. Scope tracking is brace-depth from the declaration line; good
# enough for the straight-line guard blocks this tree writes.
GUARD_DECL_RE = re.compile(r"\bsim::(?:LockGuard|UniqueLock|SharedLockGuard)\b")
WAIT_CALL_RE = re.compile(
    r"(?:\.|->)\s*wait\s*\(|(?:\.|->)\s*(?:read_host|write_host|transfer)\s*\(")
LOCK_WAIT_WINDOW = 24

# persist-pair (regex fallback): per function (reset at each column-0 `}`),
# commit-word publishes must not outnumber persist fences. Calls only: the
# member-call syntax excludes definitions and declarations.
PERSIST_CALL_RE = re.compile(r"(?:\.|->)\s*persist_fence\s*\(")

# sqe-tenant-drop (regex fallback): an encode_* definition taking a *Cmd
# parameter whose body never mentions `tenant`.
ENCODE_DEF_RE = re.compile(r"\b(?P<name>encode_\w+)\s*\((?P<args>[^)]*)\)")
TENANT_REF_RE = re.compile(r"\btenant\b")

# fixed-deadline: the health-scored backends (src/dfs/, src/kv/) derive
# their waits from PeerHealth::deadline() — the scaled observed p99 — not
# from the fixed calib timeout constants, which can neither track a slow
# regime nor cut a gray-failing one short. The untracked fallback (latency
# tracking off) keeps the constant under an explicit
# `// dpc-lint: ok(fixed-deadline)`.
FIXED_DEADLINE_RE = re.compile(r"\bk(?:KvOp|NvmeCommand)Timeout\b")

ALL_RULES = (
    "raw-mutex",
    "raw-guard",
    "doorbell-fence",
    "sqe-encode",
    "hot-path-lookup",
    "wall-clock",
    "checksum-stamp",
    "lockfree-mutex",
    "tenant-id",
    "wal-commit-order",
    "lock-across-wait",
    "wall-clock-reachable",
    "sqe-tenant-drop",
    "persist-pair",
    "stale-suppression",
    "fixed-deadline",
)

# Rules the regex engine checks completely enough to judge a suppression
# stale. wall-clock-reachable is AST-only: its suppressions are only
# auditable when libclang is driving.
REGEX_COMPLETE_RULES = frozenset(ALL_RULES) - {"wall-clock-reachable"}


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self) -> tuple[str, int, str]:
        return (str(self.path), self.line, self.rule)

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def in_fixtures(rel: str) -> bool:
    return rel.startswith("tests/lint_fixtures/")


def strip_comment(line: str) -> str:
    """Drops // comments so commented-out code is not linted."""
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


class FileCtx:
    """Per-file lint state: the lines, plus which suppressions earned their
    keep (for the stale-suppression rule)."""

    def __init__(self, path: Path, lines: list[str]):
        self.path = path
        self.lines = lines
        self.used: set[tuple[int, str]] = set()  # (0-based comment line, rule)

    def suppressed(self, idx: int, rule: str) -> bool:
        """True if line `idx` (0-based) carries or follows an ok(<rule>)."""
        for probe in (idx, idx - 1):
            if probe < 0:
                continue
            m = SUPPRESS_RE.search(self.lines[probe])
            if m and rule in [r.strip() for r in m.group("rules").split(",")]:
                self.used.add((probe, rule))
                return True
        return False


def lint_file(path: Path, findings: list[Finding],
              stale_rules: frozenset[str]) -> None:
    rel = str(path.relative_to(REPO))
    lines = path.read_text(encoding="utf-8").splitlines()
    ctx = FileCtx(path, lines)
    in_wrapper = rel in WRAPPER_FILES
    in_sim = rel.startswith("src/sim/")
    nvm_scope = rel.startswith("src/nvm/") or in_fixtures(rel)
    deadline_scope = (rel.startswith("src/dfs/") or rel.startswith("src/kv/")
                      or in_fixtures(rel))
    lockfree_tag: str | None = None
    lockfree_open_line = 0
    # persist-pair accumulators, reset at each column-0 closing brace.
    pp_publishes: list[int] = []  # 1-based lines of commit-word publishes
    pp_fences = 0

    def flush_persist_pair() -> None:
        nonlocal pp_publishes, pp_fences
        if (pp_publishes and len(pp_publishes) > pp_fences
                and not ctx.suppressed(pp_publishes[0] - 1, "persist-pair")):
            findings.append(Finding(
                path, pp_publishes[0], "persist-pair",
                f"{len(pp_publishes)} commit-word publish(es) over "
                f"{pp_fences} persist_fence call(s) in this function — "
                "each published commit word needs its payload fenced "
                "durable first; pair every publish with a fence"))
        pp_publishes = []
        pp_fences = 0

    for i, raw in enumerate(lines):
        line = strip_comment(raw)
        n = i + 1

        # Region tracking reads the *raw* line: the markers are comments.
        begin = LOCKFREE_BEGIN_RE.search(raw)
        end = LOCKFREE_END_RE.search(raw)
        if begin:
            if lockfree_tag is not None:
                findings.append(Finding(
                    path, n, "lockfree-mutex",
                    f"lockfree-begin({begin.group('tag')}) while "
                    f"{lockfree_tag!r} (opened line {lockfree_open_line}) "
                    "is still open — regions must not nest"))
            lockfree_tag = begin.group("tag")
            lockfree_open_line = n
        elif end:
            if lockfree_tag != end.group("tag"):
                findings.append(Finding(
                    path, n, "lockfree-mutex",
                    f"lockfree-end({end.group('tag')}) does not match the "
                    f"open region {lockfree_tag!r}"))
            lockfree_tag = None
        elif (lockfree_tag is not None and LOCK_ACQUIRE_RE.search(line)
                and not ctx.suppressed(i, "lockfree-mutex")):
            findings.append(Finding(
                path, n, "lockfree-mutex",
                f"lock acquisition inside lockfree region "
                f"({lockfree_tag!r}, opened line {lockfree_open_line}) — "
                "the seqlock read path must stay lock-free; move the "
                "locked fallback below lockfree-end"))

        if not in_wrapper:
            if RAW_MUTEX_RE.search(line) and not ctx.suppressed(i,
                                                                "raw-mutex"):
                findings.append(Finding(
                    path, n, "raw-mutex",
                    "raw std::mutex — use sim::AnnotatedMutex / "
                    "sim::AnnotatedSharedMutex so the thread-safety "
                    "annotations and the lock-rank detector see it"))
            if RAW_GUARD_RE.search(line) and not ctx.suppressed(i,
                                                                "raw-guard"):
                findings.append(Finding(
                    path, n, "raw-guard",
                    "std guard — use sim::LockGuard / sim::UniqueLock / "
                    "sim::SharedLockGuard (SCOPED_CAPABILITY-annotated)"))

        if (rel != "src/pcie/dma.cpp" and DOORBELL_RE.search(line)
                and not ctx.suppressed(i, "doorbell-fence")):
            lo = max(0, i - DOORBELL_LOOKBACK)
            window = [strip_comment(l) for l in lines[lo:i]]
            if not any(PUBLISH_RE.search(w) for w in window):
                findings.append(Finding(
                    path, n, "doorbell-fence",
                    "doorbell with no preceding publish (store / "
                    "release-store / DMA write) in the prior "
                    f"{DOORBELL_LOOKBACK} lines — the device may see the "
                    "ring update before the descriptor"))

        if (rel != "src/nvme/spec.cpp" and SQE_WRITE_RE.search(line)
                and not ctx.suppressed(i, "sqe-encode")):
            findings.append(Finding(
                path, n, "sqe-encode",
                "SQE field written outside nvme/spec.cpp encode_*/decode_* "
                "helpers — wire-format knowledge lives in one file"))

        if (rel != "src/kvfs/fsck.cpp" and HOT_LOOKUP_RE.search(line)
                and not ctx.suppressed(i, "hot-path-lookup")):
            findings.append(Finding(
                path, n, "hot-path-lookup",
                "registry name-lookup fused with record/add — cache the "
                "instrument pointer at construction (lookup takes the "
                "registry lock and hashes the name per call)"))

        if WALL_CLOCK_RE.search(line) and not ctx.suppressed(i, "wall-clock"):
            findings.append(Finding(
                path, n, "wall-clock",
                "wall-clock read — modelled time is sim::Nanos; real "
                "clocks make runs non-reproducible"))
        if in_sim and SIM_STEADY_RE.search(line) and not ctx.suppressed(
                i, "wall-clock"):
            findings.append(Finding(
                path, n, "wall-clock",
                "steady_clock inside the time model — src/sim/ must be "
                "clock-free"))

        if (deadline_scope and FIXED_DEADLINE_RE.search(line)
                and not ctx.suppressed(i, "fixed-deadline")):
            findings.append(Finding(
                path, n, "fixed-deadline",
                "fixed timeout constant on a health-scored backend path — "
                "cut retries at PeerHealth::deadline() (scaled observed "
                "p99) so the wait tracks the peer's actual regime; keep "
                "the calib constant only as the untracked fallback under an "
                "explicit ok(fixed-deadline)"))

        tenant_decl = TENANT_DECL_RE.search(line)
        if tenant_decl and not ctx.suppressed(i, "tenant-id"):
            var = tenant_decl.group("var")
            stamp = re.compile(r"\b" + re.escape(var) + r"\s*\.\s*tenant\s*=")
            hi = min(len(lines), i + TENANT_WINDOW + 1)
            window = [strip_comment(l) for l in lines[i:hi]]
            if not any(stamp.search(w) for w in window):
                findings.append(Finding(
                    path, n, "tenant-id",
                    f"'{var}' is encoded/dispatched without a .tenant stamp "
                    f"within {TENANT_WINDOW} lines — the command will bill "
                    "to tenant 0 and dodge QoS accounting; stamp the "
                    "issuing tenant (or an explicit `.tenant = 0` for a "
                    "deliberately single-tenant site)"))

        if (nvm_scope and WAL_COMMIT_RE.search(line)
                and not WAL_COMMIT_DECL_RE.search(line)):
            if not ctx.suppressed(i, "wal-commit-order"):
                lo = max(0, i - WAL_COMMIT_LOOKBACK)
                window = [strip_comment(l) for l in lines[lo:i]]
                if not any(WAL_FENCE_RE.search(w) for w in window):
                    findings.append(Finding(
                        path, n, "wal-commit-order",
                        "commit word published with no persist_fence in the "
                        f"prior {WAL_COMMIT_LOOKBACK} lines — the WAL "
                        "contract is data-before-commit: fence the payload "
                        "durable before writing the commit word that "
                        "validates it"))
            pp_publishes.append(n)
        if nvm_scope and PERSIST_CALL_RE.search(line):
            pp_fences += 1
        if nvm_scope and raw.startswith("}"):
            flush_persist_pair()

        if rel in CHECKSUM_STORE_FILES:
            m = MEMCPY_CALL_RE.search(line)
            if (m and STORED_PAYLOAD_RE.search(m.group("dest"))
                    and not ctx.suppressed(i, "checksum-stamp")):
                lo = max(0, i - STAMP_WINDOW)
                hi = min(len(lines), i + STAMP_WINDOW + 1)
                window = [strip_comment(l) for l in lines[lo:hi]]
                if not any(STAMP_RE.search(w) for w in window):
                    findings.append(Finding(
                        path, n, "checksum-stamp",
                        "payload memcpy into a checksummed store with no "
                        f"CRC restamp within {STAMP_WINDOW} lines — route "
                        "the mutation through the stamp_*_crc helper or "
                        "the write path that calls it"))

        # lock-across-wait fallback: from a sim:: guard declaration, scan
        # forward while its scope is open for a modelled-time wait.
        if (not in_wrapper and GUARD_DECL_RE.search(line)
                and not line.lstrip().startswith("class")):
            depth = line.count("{") - line.count("}")
            hi = min(len(lines), i + 1 + LOCK_WAIT_WINDOW)
            for j in range(i + 1, hi):
                body = strip_comment(lines[j])
                depth += body.count("{") - body.count("}")
                if depth < 0:
                    break  # the guard's scope closed
                if (WAIT_CALL_RE.search(body)
                        and not ctx.suppressed(j, "lock-across-wait")):
                    findings.append(Finding(
                        path, j + 1, "lock-across-wait",
                        "modelled-time wait (IniDriver::wait / DMA burst) "
                        f"with the lock from line {n} still held — the "
                        "wait spins or charges device-speed nanoseconds; "
                        "drop the guard (scope it) before waiting"))
                    break

        # sqe-tenant-drop fallback: an encode_* definition with a *Cmd
        # parameter must reference the tenant field somewhere in its body.
        enc = ENCODE_DEF_RE.search(line)
        if (enc and "Cmd" in enc.group("args")
                and not line.rstrip().endswith(";")
                and not ctx.suppressed(i, "sqe-tenant-drop")):
            depth = 0
            opened = False
            stamped = False
            for j in range(i, min(len(lines), i + 120)):
                body = strip_comment(lines[j])
                if opened and TENANT_REF_RE.search(body):
                    stamped = True
                    break
                depth += body.count("{") - body.count("}")
                if body.count("{"):
                    opened = True
                if opened and depth <= 0:
                    break
            if opened and not stamped:
                findings.append(Finding(
                    path, n, "sqe-tenant-drop",
                    f"SQE builder {enc.group('name')}() never references "
                    "the command's tenant field — DW10[31:24] encodes "
                    "tenant 0 and the I/O dodges QoS attribution"))

    if lockfree_tag is not None:
        findings.append(Finding(
            path, lockfree_open_line, "lockfree-mutex",
            f"lockfree-begin({lockfree_tag}) never closed by a matching "
            "lockfree-end"))
    if nvm_scope:
        flush_persist_pair()

    # stale-suppression: every ok(<rule>) must have earned its keep above.
    for i, raw in enumerate(lines):
        m = SUPPRESS_RE.search(raw)
        if not m:
            continue
        for rule in [r.strip() for r in m.group("rules").split(",")]:
            if rule not in ALL_RULES:
                if not ctx.suppressed(i, "stale-suppression"):
                    findings.append(Finding(
                        path, i + 1, "stale-suppression",
                        f"suppression names unknown rule '{rule}' — "
                        "typo, or the rule was removed"))
                continue
            if rule not in stale_rules:
                continue  # the active engine cannot judge this one
            if (i, rule) not in ctx.used and not ctx.suppressed(
                    i, "stale-suppression"):
                findings.append(Finding(
                    path, i + 1, "stale-suppression",
                    f"ok({rule}) suppressed nothing in this run — the "
                    "offending code was fixed or moved; delete the "
                    "suppression"))


# ---------------------------------------------------------------------------
# AST engine (libclang over the CMake compile database)

WAIT_FN_NAMES = frozenset({"wait", "transfer", "read_host", "write_host"})
WALL_CLOCK_NAMES = ("system_clock", "high_resolution_clock")


class AstEngine:
    """Deeper implementations of the protocol rules, driven by libclang
    cursors over the translation units in compile_commands.json. Every
    traversal is defensive: a parse failure degrades that file to the regex
    fallback instead of failing the lint run."""

    def __init__(self, compile_db_dir: Path):
        from clang import cindex  # raises ImportError when absent
        self.cindex = cindex
        self.db = cindex.CompilationDatabase.fromDirectory(str(compile_db_dir))
        self.index = cindex.Index.create()
        self.warned: set[str] = set()

    def _args_for(self, path: Path) -> list[str] | None:
        cmds = self.db.getCompileCommands(str(path))
        if not cmds:
            return None
        args = list(cmds[0].arguments)[1:]  # drop the compiler itself
        # Strip output/input operands; keep flags and -I/-D/-std.
        out: list[str] = []
        skip = False
        for a in args:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = a == "-o"
                continue
            if a == str(path) or a.endswith(path.name):
                continue
            out.append(a)
        return out

    def lint(self, path: Path, findings: list[Finding],
             ctx: "FileCtx") -> bool:
        """Lints one TU. Returns False when the file is not in the compile
        db or failed to parse (caller falls back silently — headers and
        uncompiled files are expected misses)."""
        try:
            args = self._args_for(path)
            if args is None:
                return False
            tu = self.index.parse(str(path), args=args)
            if tu is None:
                return False
            self._lint_tu(tu, path, findings, ctx)
            return True
        except Exception as e:  # noqa: BLE001 — degrade, never crash the lint
            key = type(e).__name__
            if key not in self.warned:
                self.warned.add(key)
                print(f"dpc_lint: AST engine degraded on {path.name}: {e}",
                      file=sys.stderr)
            return False

    # -- rule bodies --------------------------------------------------------

    def _functions(self, tu, path: Path):
        ck = self.cindex.CursorKind
        fn_kinds = (ck.FUNCTION_DECL, ck.CXX_METHOD, ck.CONSTRUCTOR,
                    ck.FUNCTION_TEMPLATE)

        def walk(cur):
            for c in cur.get_children():
                loc = c.location
                if loc.file is not None and str(loc.file) != str(path):
                    continue
                if c.kind in fn_kinds and c.is_definition():
                    yield c
                else:
                    yield from walk(c)

        yield from walk(tu.cursor)

    def _lint_tu(self, tu, path: Path, findings: list[Finding],
                 ctx: "FileCtx") -> None:
        ck = self.cindex.CursorKind
        graph: dict[str, set[str]] = {}
        wall_readers: set[str] = set()
        modelled: dict[str, tuple[str, int]] = {}  # usr -> (name, line)

        for fn in self._functions(tu, path):
            usr = fn.get_usr() or fn.spelling
            sig = " ".join(t.spelling for t in
                           [fn.result_type] + [a.type for a in
                                               fn.get_arguments()])
            if "Nanos" in sig:
                modelled[usr] = (fn.spelling, fn.location.line)
            guards: list[int] = []
            publishes: list[int] = []
            fences = 0
            tenant_seen = False
            callees: set[str] = set()
            for c in fn.walk_preorder():
                if c.kind == ck.VAR_DECL and any(
                        g in c.type.spelling for g in
                        ("LockGuard", "UniqueLock", "SharedLockGuard")):
                    guards.append(c.location.line)
                elif c.kind == ck.CALL_EXPR:
                    name = c.spelling or ""
                    ref = c.referenced
                    callees.add((ref.get_usr() if ref is not None else "")
                                or name)
                    if name in WAIT_FN_NAMES and guards and \
                            c.location.line > guards[0]:
                        if not ctx.suppressed(c.location.line - 1,
                                              "lock-across-wait"):
                            findings.append(Finding(
                                path, c.location.line, "lock-across-wait",
                                "modelled-time wait with the lock from "
                                f"line {guards[0]} still held — drop the "
                                "guard before waiting"))
                    if name == "publish_commit_word":
                        publishes.append(c.location.line)
                    elif name == "persist_fence":
                        fences += 1
                elif c.kind in (ck.MEMBER_REF_EXPR, ck.MEMBER_REF,
                                ck.DECL_REF_EXPR):
                    if "tenant" in (c.spelling or ""):
                        tenant_seen = True
                    if any(w in (c.spelling or "") for w in WALL_CLOCK_NAMES):
                        wall_readers.add(usr)
                elif c.kind in (ck.TYPE_REF, ck.TEMPLATE_REF):
                    if any(w in (c.spelling or "") for w in WALL_CLOCK_NAMES):
                        wall_readers.add(usr)
            graph[usr] = callees
            if publishes and len(publishes) > fences and not ctx.suppressed(
                    publishes[0] - 1, "persist-pair"):
                findings.append(Finding(
                    path, publishes[0], "persist-pair",
                    f"{len(publishes)} commit-word publish(es) over "
                    f"{fences} persist_fence call(s) in "
                    f"{fn.spelling}() — pair every publish with a fence"))
            if (fn.spelling.startswith("encode_") and not tenant_seen
                    and any("Cmd" in a.type.spelling
                            for a in fn.get_arguments())
                    and not ctx.suppressed(fn.location.line - 1,
                                           "sqe-tenant-drop")):
                findings.append(Finding(
                    path, fn.location.line, "sqe-tenant-drop",
                    f"SQE builder {fn.spelling}() never references the "
                    "command's tenant field — DW10[31:24] encodes tenant 0"))

        # wall-clock-reachable: modelled-time functions that reach a
        # wall-clock reader transitively within this TU.
        reaches: set[str] = set(wall_readers)
        changed = True
        while changed:
            changed = False
            for usr, callees in graph.items():
                if usr not in reaches and callees & reaches:
                    reaches.add(usr)
                    changed = True
        for usr, (name, line) in modelled.items():
            if usr in reaches and not ctx.suppressed(line - 1,
                                                     "wall-clock-reachable"):
                findings.append(Finding(
                    path, line, "wall-clock-reachable",
                    f"{name}() is modelled-time (sim::Nanos in its "
                    "signature) but transitively reaches a wall-clock "
                    "read — modelled time must not depend on real clocks"))


def make_ast_engine(mode: str, db_dir: str) -> tuple[AstEngine | None, str]:
    """Returns (engine, note). engine is None when unavailable; note says
    why (empty when the engine loaded)."""
    if mode == "off":
        return None, ""
    try:
        import clang.cindex  # noqa: F401
    except ImportError:
        return None, "python libclang bindings (clang.cindex) not importable"
    try:
        return AstEngine(Path(db_dir)), ""
    except Exception as e:  # noqa: BLE001
        return None, f"compile db unusable at {db_dir}: {e}"


# ---------------------------------------------------------------------------
# Driver

def collect_files(roots: list[Path]) -> list[Path] | None:
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(sorted(root.rglob("*.hpp")))
            files.extend(sorted(root.rglob("*.cpp")))
        else:
            print(f"dpc_lint: no such path: {root}", file=sys.stderr)
            return None
    return files


def lint_paths(files: list[Path], ast: AstEngine | None) -> list[Finding]:
    stale_rules = (frozenset(ALL_RULES) if ast is not None
                   else REGEX_COMPLETE_RULES)
    findings: list[Finding] = []
    for f in files:
        lint_file(f, findings, stale_rules)
        if ast is not None and f.suffix == ".cpp":
            ctx = FileCtx(f, f.read_text(encoding="utf-8").splitlines())
            ast.lint(f, findings, ctx)
    # The AST rules overlap their regex fallbacks on purpose; report each
    # (file, line, rule) once.
    seen: set[tuple[str, int, str]] = set()
    out: list[Finding] = []
    for fi in sorted(findings, key=lambda x: x.key()):
        if fi.key() not in seen:
            seen.add(fi.key())
            out.append(fi)
    return out


def run_selftest(ast: AstEngine | None) -> int:
    """Lints the committed negative fixtures and requires exactly the
    annotated findings: every `// expect: <rule>` line must fire, nothing
    unannotated may. `// expect-ast:` lines only count when the AST engine
    is active."""
    if not FIXTURES.is_dir():
        print(f"dpc_lint: selftest: no fixtures at {FIXTURES}",
              file=sys.stderr)
        return 2
    files = sorted(FIXTURES.glob("*.cpp")) + sorted(FIXTURES.glob("*.hpp"))
    if not files:
        print("dpc_lint: selftest: fixtures directory is empty",
              file=sys.stderr)
        return 2

    expected: set[tuple[str, int, str]] = set()
    for f in files:
        for i, raw in enumerate(f.read_text(encoding="utf-8").splitlines()):
            m = EXPECT_RE.search(raw)
            if not m:
                continue
            if m.group("ast") and ast is None:
                continue  # AST-only expectation, regex engine running
            for rule in [r.strip() for r in m.group("rules").split(",")]:
                expected.add((str(f), i + 1, rule))

    actual = {fi.key(): fi for fi in lint_paths(files, ast)}
    missing = sorted(expected - set(actual))
    unexpected = sorted(set(actual) - expected)

    ok = True
    for path, line, rule in missing:
        rel = Path(path).relative_to(REPO)
        print(f"dpc_lint: selftest: {rel}:{line}: [{rule}] expected but "
              "did NOT fire — the rule lost its teeth", file=sys.stderr)
        ok = False
    for key in unexpected:
        print(f"dpc_lint: selftest: unexpected finding: {actual[key]}",
              file=sys.stderr)
        ok = False
    engine = "ast+regex" if ast is not None else "regex"
    if ok:
        print(f"dpc_lint: selftest ok ({engine}: {len(expected)} expected "
              f"finding(s) across {len(files)} fixture(s) all fired)")
        return 0
    print(f"dpc_lint: selftest FAILED ({engine})", file=sys.stderr)
    return 1


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint (default: src/)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--ast", choices=("auto", "on", "off"), default="auto",
                    help="AST engine: auto = use libclang when importable, "
                         "on = require it, off = regex only")
    ap.add_argument("--compile-db", default=str(REPO / "build"),
                    help="directory holding compile_commands.json "
                         "(default: build/)")
    ap.add_argument("--selftest", action="store_true",
                    help="lint tests/lint_fixtures/ and require exactly "
                         "the annotated findings")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in ALL_RULES:
            print(r)
        return 0

    ast, note = make_ast_engine(args.ast, args.compile_db)
    if ast is None and args.ast == "on":
        print(f"dpc_lint: --ast on but the AST engine is unavailable: "
              f"{note}", file=sys.stderr)
        return 2
    if ast is None and args.ast == "auto" and note:
        print(f"dpc_lint: note: {note} — regex fallback only")

    if args.selftest:
        return run_selftest(ast)

    roots = [Path(p).resolve() for p in args.paths] if args.paths else [SRC]
    files = collect_files(roots)
    if files is None:
        return 2

    findings = lint_paths(files, ast)
    for f in findings:
        print(f)
    if findings:
        print(f"dpc_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    engine = "ast+regex" if ast is not None else "regex"
    print(f"dpc_lint: clean ({len(files)} files, {engine})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
