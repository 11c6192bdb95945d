// GF(2^8) arithmetic with the polynomial 0x11D, table-driven (exp/log) for
// single elements, used by the Reed–Solomon codec.
//
// Region multiplies (dst ^= c·src over whole shards) use the split-nibble
// method of Plank, Greenan & Miller, "Screaming Fast Galois Field Arithmetic
// Using Intel SIMD Instructions" (FAST '13): c·x = c·(x & 0x0F) ^
// c·(x & 0xF0), so two 16-entry product tables per coefficient turn the
// multiply into two table lookups. With AVX2 each lookup is one `vpshufb`
// over 32 bytes. The kernel is runtime-dispatched exactly like crc32c():
// detected once at first use, portable scalar loop otherwise. All backends
// produce bit-identical bytes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace dpc::ec {

class Gf256 {
 public:
  /// Tables are process-wide constants; access through the singleton.
  static const Gf256& instance();

  std::uint8_t add(std::uint8_t a, std::uint8_t b) const {
    return a ^ b;  // addition in GF(2^8) is xor
  }
  std::uint8_t mul(std::uint8_t a, std::uint8_t b) const {
    if (a == 0 || b == 0) return 0;
    return exp_[(log_[a] + log_[b]) % 255];
  }
  std::uint8_t div(std::uint8_t a, std::uint8_t b) const;
  std::uint8_t inv(std::uint8_t a) const;
  /// a^n for n >= 0.
  std::uint8_t pow(std::uint8_t a, unsigned n) const;
  /// Generator element (2) raised to the i-th power.
  std::uint8_t exp(unsigned i) const { return exp_[i % 255]; }

  /// dst[i] ^= c * src[i] — the delta-parity primitive (dispatched kernel).
  void mul_acc(std::span<std::byte> dst, std::span<const std::byte> src,
               std::uint8_t c) const;

  /// Matrix-times-shards: out[j] = XOR_i coeffs[j * in.size() + i] · in[i]
  /// for every output j (coeffs row-major, out.size() x in.size()). One
  /// pass computes up to four outputs in registers, so each input byte is
  /// loaded once per four outputs rather than once per output — the one
  /// region helper behind RS encode, reconstruct and verify. Every span must
  /// have the same size; outputs must not alias inputs.
  void mul_rows(const std::uint8_t* coeffs,
                std::span<const std::span<const std::byte>> in,
                std::span<const std::span<std::byte>> out) const;

 private:
  Gf256();
  std::array<std::uint8_t, 256> exp_{};  // exp_[i] = 2^i (exp_[255]=exp_[0])
  std::array<std::uint8_t, 256> log_{};  // log_[exp_[i]] = i
};

/// Name of the backend the region kernels dispatched to: "avx2" (vpshufb)
/// or "scalar" (portable nibble-table loop). For logs, benches, and tests
/// that want to know whether the vector path is actually under test.
const char* gf256_backend();

/// The portable split-nibble kernel. Always available regardless of
/// dispatch; the fallback on CPUs without AVX2 and the reference the tests
/// compare the vector kernels against.
void gf256_mul_acc_scalar(std::span<std::byte> dst,
                          std::span<const std::byte> src, std::uint8_t c);

/// Square matrix over GF(2^8) with Gauss-Jordan inversion — used to build
/// the decode matrix when reconstructing from erasures.
class GfMatrix {
 public:
  GfMatrix(std::size_t rows, std::size_t cols);

  std::uint8_t& at(std::size_t r, std::size_t c);
  std::uint8_t at(std::size_t r, std::size_t c) const;
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Returns the inverse; DPC_CHECKs the matrix is square and non-singular.
  GfMatrix inverted() const;
  GfMatrix multiplied(const GfMatrix& other) const;
  static GfMatrix identity(std::size_t n);
  /// Vandermonde-derived systematic encode matrix ((k+m) x k): the top k
  /// rows are the identity, the bottom m rows generate parity.
  static GfMatrix rs_encode_matrix(std::size_t k, std::size_t m);
  /// Row r's cols() coefficients; consecutive rows are contiguous.
  const std::uint8_t* row(std::size_t r) const;

 private:
  std::size_t rows_, cols_;
  std::vector<std::uint8_t> data_;
};

}  // namespace dpc::ec
