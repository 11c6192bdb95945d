#include "bench.hpp"

#include <cstring>
#include <sstream>

namespace perfbench {

const char* class_name(OpClass c) {
  switch (c) {
    case OpClass::kRead: return "read";
    case OpClass::kWrite: return "write";
    case OpClass::kMeta: return "meta";
    case OpClass::kFsync: return "fsync";
  }
  return "?";
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng r(a ^ (b * 0xD6E8FEB86659FD93ull));
  return r.next();
}

void fill(std::span<std::byte> dst, std::uint64_t key) {
  std::uint64_t w = mix(key, 0x5EED);
  std::size_t at = 0;
  for (; at + 8 <= dst.size(); at += 8) {
    std::memcpy(dst.data() + at, &w, 8);
    w = w * 6364136223846793005ull + 1442695040888963407ull;
  }
  for (; at < dst.size(); ++at)
    dst[at] = static_cast<std::byte>(w >> (8 * (at % 8)));
}

void report_mismatch(const std::string& workload, const char* op,
              const std::string& where, const std::string& detail) {
  std::ostringstream os;
  os << "MISMATCH workload=" << workload << " op=" << op << " " << where
     << ": " << detail;
  throw Mismatch(os.str());
}

Client::Client(std::string workload_name, int thread_index,
               std::uint64_t seed, Inject inject)
    : workload(std::move(workload_name)),
      thread(thread_index),
      rng(mix(seed, 0x7448 + static_cast<std::uint64_t>(thread_index))),
      inject_(inject) {
  // Reserved, not touched: the pages become resident only as samples land,
  // and the vector never reallocates (and copies) mid-phase.
  measured.wall_ns.reserve(1u << 22);
}

void Client::note_op(OpClass cls, std::uint64_t target) {
  if (mode == Mode::kWarmup) return;
  auto fold = [this](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      stream_hash ^= (v >> (8 * i)) & 0xFF;
      stream_hash *= 0x100000001b3ull;
    }
  };
  fold(static_cast<std::uint64_t>(cls));
  fold(target);
  ++stream_ops;
}

void Client::record(OpClass cls, const dpc::core::Io& io, std::int64_t t0,
                    std::int64_t t1) {
  last_wall_ns_ = t1 - t0;
  ++attempted;
  if (!io.ok()) ++failed;
  if (mode == Mode::kMeasure) {
    auto& m = measured;
    m.wall_ns.push_back(t1 - t0);
    ++m.model[static_cast<int>(cls)][io.cost.ns];
    if (!io.cache_hit) {
      m.dpu_cost_ns += static_cast<double>(io.cost.ns);
      ++m.dpu_ops;
    }
    if (cls == OpClass::kRead || cls == OpClass::kWrite)
      m.user_bytes += io.bytes;
  } else if (mode == Mode::kTrace) {
    ++traced_calls;
    spans.push_back(Span{t0, t1, cls, io.cache_hit});
  }
}

void Client::expect(std::span<const std::byte> got, std::span<std::byte> want,
                    const char* op, const std::string& where) {
  if (inject_ == Inject::kFlipByte && thread == 0 && !flipped_ &&
      mode == Mode::kMeasure && !want.empty()) {
    flipped_ = true;
    want[want.size() / 2] ^= std::byte{0x01};
  }
  if (got.size() != want.size())
    report_mismatch(workload, op, where,
                    "length " + std::to_string(got.size()) +
                        " != expected " + std::to_string(want.size()));
  if (std::memcmp(got.data(), want.data(), got.size()) != 0) {
    std::size_t at = 0;
    while (got[at] == want[at]) ++at;
    report_mismatch(workload, op, where,
                    "content differs from the shadow at byte " +
                        std::to_string(at));
  }
}

void Client::expect_eq(std::uint64_t got, std::uint64_t want, const char* op,
                       const std::string& where, const char* what) {
  if (got != want)
    report_mismatch(workload, op, where,
                    std::string(what) + " " + std::to_string(got) +
                        " != expected " + std::to_string(want));
}

}  // namespace perfbench
