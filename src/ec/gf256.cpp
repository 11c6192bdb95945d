#include "ec/gf256.hpp"

#include <algorithm>

#include "sim/check.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DPC_GF256_AVX2 1
#include <immintrin.h>
#endif

namespace dpc::ec {

namespace {
constexpr unsigned kPoly = 0x11D;  // x^8 + x^4 + x^3 + x^2 + 1

using Nibbles = std::array<std::array<std::uint8_t, 16>, 256>;
using InShards = std::span<const std::span<const std::byte>>;
using OutShards = std::span<const std::span<std::byte>>;

constexpr std::uint8_t slow_mul(unsigned a, unsigned b) {
  unsigned r = 0;
  for (; b != 0; b >>= 1) {
    if (b & 1) r ^= a;
    a <<= 1;
    if (a & 0x100) a ^= kPoly;
  }
  return static_cast<std::uint8_t>(r);
}

// kLo[c][x] = c·x and kHi[c][x] = c·(x << 4): multiplication distributes
// over xor, so c·b = kLo[c][b & 15] ^ kHi[c][b >> 4].
constexpr Nibbles make_nibbles(unsigned shift) {
  Nibbles t{};
  for (unsigned c = 0; c < 256; ++c)
    for (unsigned x = 0; x < 16; ++x) t[c][x] = slow_mul(c, x << shift);
  return t;
}
constexpr Nibbles kLo = make_nibbles(0);
constexpr Nibbles kHi = make_nibbles(4);

// Outputs one fused pass keeps in registers.
constexpr std::size_t kOutGroup = 4;

void acc_scalar(std::byte* dst, const std::byte* src, std::size_t n,
                std::uint8_t c) {
  const auto& lo = kLo[c];
  const auto& hi = kHi[c];
  for (std::size_t i = 0; i < n; ++i) {
    const auto x = static_cast<std::uint8_t>(src[i]);
    dst[i] ^= static_cast<std::byte>(lo[x & 15] ^ hi[x >> 4]);
  }
}

void set_scalar(std::byte* dst, const std::byte* src, std::size_t n,
                std::uint8_t c) {
  const auto& lo = kLo[c];
  const auto& hi = kHi[c];
  for (std::size_t i = 0; i < n; ++i) {
    const auto x = static_cast<std::uint8_t>(src[i]);
    dst[i] = static_cast<std::byte>(lo[x & 15] ^ hi[x >> 4]);
  }
}

// out[j][off, off+n) = XOR_s coeffs[j*in.size() + s] · in[s][off, off+n).
void dot_scalar(const std::uint8_t* coeffs, InShards in, OutShards out,
                std::size_t off, std::size_t n) {
  const std::size_t k = in.size();
  for (std::size_t j = 0; j < out.size(); ++j) {
    std::byte* dst = out[j].data() + off;
    set_scalar(dst, in[0].data() + off, n, coeffs[j * k]);
    for (std::size_t s = 1; s < k; ++s)
      acc_scalar(dst, in[s].data() + off, n, coeffs[j * k + s]);
  }
}

#ifdef DPC_GF256_AVX2
// AVX2 split-nibble kernels: one vpshufb per nibble looks up 32 products
// at once from the coefficient's 16-entry table, broadcast to both lanes.
// Compiled with per-function target attributes so the translation unit
// itself stays baseline; only runtime detection may select them. Loads and
// stores are unaligned (shard spans carry no alignment guarantee); lengths
// that are not a multiple of 32 finish in the scalar loop.
__attribute__((target("avx2"))) inline __m256i table(const Nibbles& t,
                                                     std::uint8_t c) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t[c].data())));
}

__attribute__((target("avx2"))) inline __m256i mul32(__m256i lo, __m256i hi,
                                                     __m256i x) {
  const __m256i mask = _mm256_set1_epi8(0x0F);
  return _mm256_xor_si256(
      _mm256_shuffle_epi8(lo, _mm256_and_si256(x, mask)),
      _mm256_shuffle_epi8(hi,
                          _mm256_and_si256(_mm256_srli_epi64(x, 4), mask)));
}

__attribute__((target("avx2"))) inline __m256i load32(const std::byte* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) inline void store32(std::byte* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

__attribute__((target("avx2"))) void acc_avx2(std::byte* dst,
                                              const std::byte* src,
                                              std::size_t n, std::uint8_t c) {
  const __m256i lo = table(kLo, c);
  const __m256i hi = table(kHi, c);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32)
    store32(dst + i,
            _mm256_xor_si256(load32(dst + i), mul32(lo, hi, load32(src + i))));
  acc_scalar(dst + i, src + i, n - i, c);
}

// Fused dot product for NOut outputs: each 32-byte slice of every input is
// loaded once and folded into NOut register accumulators, and each output
// slice is stored once — no read-modify-write of the outputs.
template <std::size_t NOut>
__attribute__((target("avx2"))) void dot_avx2_n(const std::uint8_t* coeffs,
                                                InShards in, OutShards out,
                                                std::size_t off,
                                                std::size_t n) {
  const std::size_t k = in.size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i acc[NOut];
#pragma GCC unroll 4
    for (std::size_t j = 0; j < NOut; ++j) acc[j] = _mm256_setzero_si256();
    for (std::size_t s = 0; s < k; ++s) {
      const __m256i x = load32(in[s].data() + off + i);
#pragma GCC unroll 4
      for (std::size_t j = 0; j < NOut; ++j) {
        const std::uint8_t c = coeffs[j * k + s];
        acc[j] = _mm256_xor_si256(acc[j],
                                  mul32(table(kLo, c), table(kHi, c), x));
      }
    }
#pragma GCC unroll 4
    for (std::size_t j = 0; j < NOut; ++j)
      store32(out[j].data() + off + i, acc[j]);
  }
  if (i < n) dot_scalar(coeffs, in, out, off + i, n - i);
}

void dot_avx2(const std::uint8_t* coeffs, InShards in, OutShards out,
              std::size_t off, std::size_t n) {
  static_assert(kOutGroup == 4);
  switch (out.size()) {
    case 1: return dot_avx2_n<1>(coeffs, in, out, off, n);
    case 2: return dot_avx2_n<2>(coeffs, in, out, off, n);
    case 3: return dot_avx2_n<3>(coeffs, in, out, off, n);
    default: return dot_avx2_n<4>(coeffs, in, out, off, n);
  }
}
#endif

using RegionFn = void (*)(std::byte*, const std::byte*, std::size_t,
                          std::uint8_t);
using DotFn = void (*)(const std::uint8_t*, InShards, OutShards, std::size_t,
                       std::size_t);

struct Backend {
  RegionFn acc;
  DotFn dot;  ///< at most kOutGroup outputs per call
  const char* name;
};

Backend detect_backend() {
#ifdef DPC_GF256_AVX2
  if (__builtin_cpu_supports("avx2"))
    return {&acc_avx2, &dot_avx2, "avx2"};
#endif
  return {&acc_scalar, &dot_scalar, "scalar"};
}

const Backend& backend() {
  // Magic-static: detected once, race-free, before the first multiply.
  static const Backend b = detect_backend();
  return b;
}
}  // namespace

const char* gf256_backend() { return backend().name; }

void gf256_mul_acc_scalar(std::span<std::byte> dst,
                          std::span<const std::byte> src, std::uint8_t c) {
  DPC_CHECK(dst.size() == src.size());
  acc_scalar(dst.data(), src.data(), dst.size(), c);
}

const Gf256& Gf256::instance() {
  static const Gf256 g;
  return g;
}

Gf256::Gf256() {
  unsigned x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    exp_[i] = static_cast<std::uint8_t>(x);
    log_[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kPoly;
  }
  exp_[255] = exp_[0];
  log_[0] = 0;  // log(0) undefined; callers guard
}

std::uint8_t Gf256::div(std::uint8_t a, std::uint8_t b) const {
  DPC_CHECK_MSG(b != 0, "GF(256) division by zero");
  if (a == 0) return 0;
  return exp_[(log_[a] + 255 - log_[b]) % 255];
}

std::uint8_t Gf256::inv(std::uint8_t a) const {
  DPC_CHECK_MSG(a != 0, "GF(256) inverse of zero");
  return exp_[(255 - log_[a]) % 255];
}

std::uint8_t Gf256::pow(std::uint8_t a, unsigned n) const {
  if (n == 0) return 1;
  if (a == 0) return 0;
  return exp_[(static_cast<unsigned>(log_[a]) * n) % 255];
}

void Gf256::mul_acc(std::span<std::byte> dst, std::span<const std::byte> src,
                    std::uint8_t c) const {
  DPC_CHECK(dst.size() == src.size());
  if (c == 0) return;
  backend().acc(dst.data(), src.data(), dst.size(), c);
}

void Gf256::mul_rows(const std::uint8_t* coeffs, InShards in,
                     OutShards out) const {
  DPC_CHECK(!in.empty());
  const std::size_t len = in[0].size();
  for (const auto& s : in) DPC_CHECK(s.size() == len);
  for (const auto& s : out) DPC_CHECK(s.size() == len);
  const DotFn dot = backend().dot;
  for (std::size_t j = 0; j < out.size(); j += kOutGroup)
    dot(coeffs + j * in.size(), in,
        out.subspan(j, std::min(kOutGroup, out.size() - j)), 0, len);
}

GfMatrix::GfMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0) {
  DPC_CHECK(rows >= 1 && cols >= 1);
}

std::uint8_t& GfMatrix::at(std::size_t r, std::size_t c) {
  DPC_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::uint8_t GfMatrix::at(std::size_t r, std::size_t c) const {
  DPC_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

const std::uint8_t* GfMatrix::row(std::size_t r) const {
  DPC_CHECK(r < rows_);
  return data_.data() + r * cols_;
}

GfMatrix GfMatrix::identity(std::size_t n) {
  GfMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

GfMatrix GfMatrix::inverted() const {
  DPC_CHECK_MSG(rows_ == cols_, "inverse of non-square matrix");
  const auto& gf = Gf256::instance();
  const std::size_t n = rows_;
  GfMatrix work(*this);
  GfMatrix inv = identity(n);

  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot row.
    std::size_t pivot = col;
    while (pivot < n && work.at(pivot, col) == 0) ++pivot;
    DPC_CHECK_MSG(pivot < n, "singular matrix");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(work.at(pivot, c), work.at(col, c));
        std::swap(inv.at(pivot, c), inv.at(col, c));
      }
    }
    // Scale pivot row to 1.
    const std::uint8_t d = gf.inv(work.at(col, col));
    for (std::size_t c = 0; c < n; ++c) {
      work.at(col, c) = gf.mul(work.at(col, c), d);
      inv.at(col, c) = gf.mul(inv.at(col, c), d);
    }
    // Eliminate the column from other rows.
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const std::uint8_t f = work.at(r, col);
      if (f == 0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        work.at(r, c) ^= gf.mul(f, work.at(col, c));
        inv.at(r, c) ^= gf.mul(f, inv.at(col, c));
      }
    }
  }
  return inv;
}

GfMatrix GfMatrix::multiplied(const GfMatrix& other) const {
  DPC_CHECK(cols_ == other.rows_);
  const auto& gf = Gf256::instance();
  GfMatrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = 0; k < cols_; ++k) {
      const std::uint8_t a = at(r, k);
      if (a == 0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c)
        out.at(r, c) ^= gf.mul(a, other.at(k, c));
    }
  return out;
}

GfMatrix GfMatrix::rs_encode_matrix(std::size_t k, std::size_t m) {
  DPC_CHECK(k >= 1 && m >= 1 && k + m <= 255);
  const auto& gf = Gf256::instance();
  // Build a (k+m) x k Vandermonde matrix, then normalize the top k x k block
  // to the identity so the code is systematic (data shards pass through).
  GfMatrix vand(k + m, k);
  for (std::size_t r = 0; r < k + m; ++r)
    for (std::size_t c = 0; c < k; ++c)
      vand.at(r, c) = gf.pow(gf.exp(static_cast<unsigned>(r)),
                             static_cast<unsigned>(c));
  // Extract top block and right-multiply by its inverse.
  GfMatrix top(k, k);
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < k; ++c) top.at(r, c) = vand.at(r, c);
  return vand.multiplied(top.inverted());
}

}  // namespace dpc::ec
