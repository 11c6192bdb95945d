#include "ec/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DPC_CRC32C_HW 1
#include <nmmintrin.h>
#endif

namespace dpc::ec {

namespace {
constexpr std::uint32_t kPoly = 0x82F63B78;  // reflected Castagnoli

// kTables[0] is the classic byte-at-a-time table; kTables[k] advances a
// byte k positions further through the shift register, so eight lookups
// (one per table) consume eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

// Reflected multiply mod the Castagnoli polynomial: bit 31 of either
// operand is x^0. Used only to build the shift tables below.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t p = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) p ^= b;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

// The GF(2) operator "append `len` zero bytes" on a raw (unconditioned)
// CRC register: shift(c) = c * x^(8*len) mod P. It is linear, so four
// 256-entry tables — one per register byte — apply it in four lookups.
struct ShiftTables {
  std::array<std::array<std::uint32_t, 256>, 4> t{};
  constexpr std::uint32_t operator()(std::uint32_t c) const {
    return t[0][c & 0xFF] ^ t[1][(c >> 8) & 0xFF] ^ t[2][(c >> 16) & 0xFF] ^
           t[3][c >> 24];
  }
};

constexpr ShiftTables make_shift(std::size_t len) {
  std::uint32_t xpow = 1u << 31;  // x^0
  for (std::size_t i = 0; i < len; ++i)
    xpow = kTables[0][xpow & 0xFF] ^ (xpow >> 8);  // *= x^8
  ShiftTables s;
  for (std::uint32_t k = 0; k < 4; ++k)
    for (std::uint32_t v = 0; v < 256; ++v)
      s.t[k][v] = multmodp(xpow, v << (8 * k));
  return s;
}

// Block lengths of the 3-stream kernel: long blocks amortize the join over
// 24 KiB, short ones keep sub-8 KiB payloads (KVFS blocks, shard tails) on
// three streams too.
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;
constexpr ShiftTables kShiftLong = make_shift(kLongBlock);
constexpr ShiftTables kShiftShort = make_shift(kShortBlock);

inline std::uint32_t step(std::uint32_t crc, std::byte b) {
  return kTables[0][(crc ^ static_cast<std::uint8_t>(b)) & 0xFF] ^
         (crc >> 8);
}

#ifdef DPC_CRC32C_HW
__attribute__((target("sse4.2"))) inline std::uint64_t crc_word(
    std::uint64_t c, const std::byte* p) {
  // memcpy load: payload spans carry no alignment guarantee.
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return _mm_crc32_u64(c, v);
}

// Three independent crc32 chains over adjacent `block`-byte blocks, joined
// by the shift operator: crc(A|B|C) = shift(shift(crc(A)) ^ crc(B)) ^
// crc(C), with B and C started from a zero register. The crc32 instruction
// has a 3-cycle latency but issues every cycle, so three chains keep it
// busy where one chain waits on itself.
__attribute__((target("sse4.2"))) inline void crc_3way(
    std::uint64_t& c0, const std::byte*& p, std::size_t& n,
    std::size_t block, const ShiftTables& shift) {
  while (n >= 3 * block) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    const std::byte* const end = p + block;
    do {
      c0 = crc_word(c0, p);
      c1 = crc_word(c1, p + block);
      c2 = crc_word(c2, p + 2 * block);
      p += 8;
    } while (p != end);
    c0 = shift(static_cast<std::uint32_t>(c0)) ^ c1;
    c0 = shift(static_cast<std::uint32_t>(c0)) ^ c2;
    p += 2 * block;
    n -= 3 * block;
  }
}

// Hardware fast path: the SSE4.2 crc32 instruction implements exactly this
// reflected-Castagnoli shift register, 8 bytes per instruction.
// Compiled with a per-function target attribute so the translation unit
// itself stays baseline; only runtime detection may select it.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    std::span<const std::byte> data, std::uint32_t crc) {
  std::uint64_t c = ~crc;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  crc_3way(c, p, n, kLongBlock, kShiftLong);
  crc_3way(c, p, n, kShortBlock, kShiftShort);
  while (n >= 8) {
    c = crc_word(c, p);
    p += 8;
    n -= 8;
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  while (n-- > 0) {
    c32 = _mm_crc32_u8(c32, static_cast<std::uint8_t>(*p++));
  }
  return ~c32;
}
#endif

using CrcFn = std::uint32_t (*)(std::span<const std::byte>, std::uint32_t);

struct Backend {
  CrcFn fn;
  const char* name;
};

Backend detect_backend() {
#ifdef DPC_CRC32C_HW
  if (__builtin_cpu_supports("sse4.2")) return {&crc32c_hw, "sse4.2"};
#endif
  return {&crc32c_slice8, "slice8"};
}

const Backend& backend() {
  // Magic-static: detected once, race-free, before first checksum.
  static const Backend b = detect_backend();
  return b;
}
}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t crc) {
  return backend().fn(data, crc);
}

const char* crc32c_backend() { return backend().name; }

std::uint32_t crc32c_slice8(std::span<const std::byte> data,
                            std::uint32_t crc) {
  crc = ~crc;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    // Byte-wise loads keep the fold endian-independent (the simulation has
    // no alignment guarantee on payload spans either).
    const std::uint32_t lo =
        crc ^ (static_cast<std::uint32_t>(p[0]) |
               static_cast<std::uint32_t>(p[1]) << 8 |
               static_cast<std::uint32_t>(p[2]) << 16 |
               static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][static_cast<std::uint8_t>(p[4])] ^
          kTables[2][static_cast<std::uint8_t>(p[5])] ^
          kTables[1][static_cast<std::uint8_t>(p[6])] ^
          kTables[0][static_cast<std::uint8_t>(p[7])];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = step(crc, *p++);
  return ~crc;
}

std::uint32_t crc32c_bytewise(std::span<const std::byte> data,
                              std::uint32_t crc) {
  crc = ~crc;
  for (const std::byte b : data) crc = step(crc, b);
  return ~crc;
}

std::uint32_t crc32c_u64(std::uint64_t v, std::uint32_t crc) {
  std::byte b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<std::byte>(v >> (8 * i));
  }
  return crc32c(std::span<const std::byte>(b, 8), crc);
}

}  // namespace dpc::ec
