#include "kv/remote.hpp"

namespace dpc::kv {

RemoteKv::RemoteKv(KvStore& store, fault::FaultInjector* fault,
                   obs::Registry* registry, const fault::RetryPolicy& retry,
                   const fault::BreakerConfig& breaker)
    : store_(&store), fault_(fault), retry_(retry),
      health_("kv", 1, breaker, registry) {
  if (registry != nullptr) {
    retry_attempts_ = &registry->counter("retry/attempts");
    retry_exhausted_ = &registry->counter("retry/exhausted");
    corrupt_reads_ = &registry->counter("kv.remote/corrupt_reads");
  }
}

void RemoteKv::enable_health(const fault::HealthConfig& cfg) {
  health_.enable_tracking(cfg);
}

sim::Nanos RemoteKv::op_cost(bool is_read, std::uint64_t payload) {
  using namespace sim::calib;
  const sim::Nanos transfer =
      is_read ? kv_read_transfer(payload) : kv_write_transfer(payload);
  return kNetHop * 2 + kKvServerOp + transfer;
}

RemoteErr RemoteKv::begin_op(bool is_read, sim::Nanos& cost) const {
  using Reach = fault::PeerHealth::Reach;
  using Sample = fault::PeerHealth::Sample;
  if (fault_ == nullptr) return RemoteErr::kOk;  // failure path disabled
  // A backend the board has quarantined or declared down fast-fails
  // without touching the wire (every Nth op slips through as a probe).
  if (!health_.allow(0)) return RemoteErr::kUnavailable;

  const std::uint64_t salt =
      op_seq_.fetch_add(1, std::memory_order_relaxed);
  for (int attempt = 1;; ++attempt) {
    if (!fault_->should_fail(kFaultSite)) {
      // The wire answers. It may still answer *slowly* (fail-slow site):
      // while tracking, the attempt is cut at the adaptive deadline and
      // retried — as a latency sample only, because a slow backend is up,
      // not down, and opening the peer on slowness conflates the two
      // failure modes.
      const sim::Nanos base = op_cost(is_read, 0);
      const sim::Nanos took = base + fault_->slow_penalty(kSlowSite, 0, base);
      const sim::Nanos deadline =
          health_.tracking() ? health_.deadline() : took;
      if (took <= deadline) {
        health_.report(0, Reach::kUp, Sample::kServed, took);
        cost += took - base;  // the caller charges the base op_cost itself
        return RemoteErr::kOk;
      }
      cost += deadline;
      health_.report(0, Reach::kNone, Sample::kCut, deadline);
    } else {
      // Attempt timed out hard: charge the wire round trip plus the
      // deadline the client waited before giving up on it. The deadline is
      // adaptive (scaled from the healthy-regime p99) while tracking; the
      // fixed constant is only the untracked fallback.
      const sim::Nanos waited =
          health_.tracking()
              ? health_.deadline()
              : sim::calib::kKvOpTimeout;  // dpc-lint: ok(fixed-deadline)
      cost += op_cost(is_read, 0) + waited;
      health_.report(0, Reach::kDown, Sample::kCut, waited);
    }
    if (attempt >= retry_.max_attempts) {
      if (retry_exhausted_ != nullptr) retry_exhausted_->add();
      return RemoteErr::kTimeout;
    }
    if (!health_.allow_hard(0)) {
      // Our own failures (plus concurrent ones) opened the peer mid-retry;
      // don't keep hammering a declared-dead backend.
      if (retry_exhausted_ != nullptr) retry_exhausted_->add();
      return RemoteErr::kUnavailable;
    }
    if (retry_attempts_ != nullptr) retry_attempts_->add();
    cost += retry_.backoff(attempt, salt);
  }
}

Timed<std::optional<Bytes>> RemoteKv::get(std::string_view key) const {
  Timed<std::optional<Bytes>> out{std::nullopt};
  out.err = begin_op(true, out.cost);
  if (!out.ok()) return out;
  // Server-side verification before the value crosses the wire: a value
  // that fails its CRC is withheld as a typed integrity error, which is
  // not retryable (re-reading rotted cells returns the same bytes).
  // Invariant: kCorrupt never opens the peer. The wire and server answered
  // on time — begin_op already reported the success — so a rot burst must
  // not mask a *liveness* signal with an *integrity* one
  // (test_tail_tolerance.TailKvCorrupt guards this).
  ValueCheck check = ValueCheck::kOk;
  out.value = store_->get_checked(key, &check);
  if (check == ValueCheck::kCorrupt) {
    out.err = RemoteErr::kCorrupt;
    if (corrupt_reads_ != nullptr) corrupt_reads_->add();
  }
  out.cost += op_cost(true, out.value ? out.value->size() : 0);
  return out;
}

Timed<bool> RemoteKv::put(std::string_view key,
                          std::span<const std::byte> value) {
  Timed<bool> out{false};
  out.err = begin_op(false, out.cost);
  if (!out.ok()) return out;
  store_->put(key, value);
  out.value = true;
  out.cost += op_cost(false, value.size());
  return out;
}

Timed<bool> RemoteKv::put_if_absent(std::string_view key,
                                    std::span<const std::byte> value) {
  Timed<bool> out{false};
  out.err = begin_op(false, out.cost);
  if (!out.ok()) return out;
  out.value = store_->put_if_absent(key, value);
  out.cost += op_cost(false, value.size());
  return out;
}

Timed<bool> RemoteKv::erase(std::string_view key) {
  Timed<bool> out{false};
  out.err = begin_op(false, out.cost);
  if (!out.ok()) return out;
  out.value = store_->erase(key);
  out.cost += op_cost(false, 0);
  return out;
}

Timed<std::optional<std::size_t>> RemoteKv::read_sub(
    std::string_view key, std::uint64_t offset,
    std::span<std::byte> dst) const {
  Timed<std::optional<std::size_t>> out{std::nullopt};
  out.err = begin_op(true, out.cost);
  if (!out.ok()) return out;
  ValueCheck check = ValueCheck::kOk;
  out.value = store_->read_sub_checked(key, offset, dst, &check);
  if (check == ValueCheck::kCorrupt) {
    out.err = RemoteErr::kCorrupt;
    if (corrupt_reads_ != nullptr) corrupt_reads_->add();
  }
  out.cost += op_cost(true, out.value.value_or(0));
  return out;
}

Timed<bool> RemoteKv::write_sub(std::string_view key, std::uint64_t offset,
                                std::span<const std::byte> src) {
  Timed<bool> out{false};
  out.err = begin_op(false, out.cost);
  if (!out.ok()) return out;
  store_->write_sub(key, offset, src);
  out.value = true;
  out.cost += op_cost(false, src.size());
  return out;
}

Timed<std::uint64_t> RemoteKv::increment(std::string_view key,
                                         std::uint64_t delta) {
  Timed<std::uint64_t> out{0};
  out.err = begin_op(false, out.cost);
  if (!out.ok()) return out;
  out.value = store_->increment(key, delta);
  out.cost += op_cost(false, 8);
  return out;
}

Timed<std::optional<std::uint64_t>> RemoteKv::value_size(
    std::string_view key) const {
  Timed<std::optional<std::uint64_t>> out{std::nullopt};
  out.err = begin_op(true, out.cost);
  if (!out.ok()) return out;
  out.value = store_->value_size(key);
  out.cost += op_cost(true, 0);
  return out;
}

Timed<std::size_t> RemoteKv::scan_prefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, const Bytes&)>& fn) const {
  Timed<std::size_t> out{0};
  out.err = begin_op(true, out.cost);
  if (!out.ok()) return out;
  std::uint64_t payload = 0;
  out.value = store_->scan_prefix(
      prefix, [&](std::string_view k, const Bytes& v) {
        payload += k.size() + v.size();
        return fn(k, v);
      });
  out.cost += op_cost(true, payload);
  return out;
}

}  // namespace dpc::kv
