#include "ec/crc32c.hpp"
#include "ec/gf256.hpp"
#include "ec/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace dpc::ec {
namespace {

TEST(Gf256, FieldAxioms) {
  const auto& gf = Gf256::instance();
  // Spot-check closure, identity, inverse over all elements.
  for (unsigned a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf.mul(ua, 1), ua);
    EXPECT_EQ(gf.mul(ua, gf.inv(ua)), 1) << "a=" << a;
    EXPECT_EQ(gf.add(ua, ua), 0);  // char 2
  }
  EXPECT_EQ(gf.mul(0, 123), 0);
  EXPECT_THROW(gf.inv(0), dpc::CheckFailure);
  EXPECT_THROW(gf.div(1, 0), dpc::CheckFailure);
}

TEST(Gf256, MulMatchesRussianPeasant) {
  // Independent implementation to cross-check the tables.
  auto slow_mul = [](std::uint8_t a, std::uint8_t b) {
    std::uint16_t r = 0, aa = a;
    while (b) {
      if (b & 1) r ^= aa;
      aa <<= 1;
      if (aa & 0x100) aa ^= 0x11D;
      b >>= 1;
    }
    return static_cast<std::uint8_t>(r);
  };
  const auto& gf = Gf256::instance();
  sim::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const auto b = static_cast<std::uint8_t>(rng.next_below(256));
    ASSERT_EQ(gf.mul(a, b), slow_mul(a, b)) << +a << "*" << +b;
  }
}

TEST(Gf256, MulAccDistributes) {
  const auto& gf = Gf256::instance();
  std::vector<std::byte> dst(64, std::byte{0});
  std::vector<std::byte> src(64);
  for (std::size_t i = 0; i < 64; ++i) src[i] = static_cast<std::byte>(i);
  gf.mul_acc(dst, src, 3);
  gf.mul_acc(dst, src, 3);
  // x ^ x = 0.
  for (auto b : dst) EXPECT_EQ(b, std::byte{0});
}

// ------------------------------------------- vector vs scalar kernels
//
// The dispatched region kernels (AVX2 vpshufb when the CPU has it) must be
// byte-identical to the portable scalar reference for every coefficient,
// length remainder and alignment, and must never write outside dst.

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

constexpr std::size_t kKernelLens[] = {0,  1,  31,   32,   33,  63,
                                       64, 65, 4095, 8192, 8193};

TEST(Gf256, BackendNameIsKnown) {
  const std::string name = gf256_backend();
  EXPECT_TRUE(name == "avx2" || name == "scalar") << name;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_EQ(name, "avx2");
  }
#endif
}

// The scalar reference for Gf256::mul_rows: each output zeroed, then every
// input multiply-accumulated into it through the portable kernel.
void scalar_dot(const std::uint8_t* coeffs,
                const std::vector<std::span<const std::byte>>& in,
                const std::vector<std::span<std::byte>>& out) {
  for (std::size_t j = 0; j < out.size(); ++j) {
    std::fill(out[j].begin(), out[j].end(), std::byte{0});
    for (std::size_t i = 0; i < in.size(); ++i)
      gf256_mul_acc_scalar(out[j], in[i], coeffs[j * in.size() + i]);
  }
}

TEST(Gf256, ScalarKernelMatchesFieldMul) {
  // The nibble tables against the exp/log multiply, every c times every x.
  const auto& gf = Gf256::instance();
  std::vector<std::byte> x(256);
  for (unsigned v = 0; v < 256; ++v) x[v] = static_cast<std::byte>(v);
  std::vector<std::byte> out(256);
  for (unsigned c = 0; c < 256; ++c) {
    const auto uc = static_cast<std::uint8_t>(c);
    std::fill(out.begin(), out.end(), std::byte{0});
    gf256_mul_acc_scalar(out, x, uc);
    for (unsigned v = 0; v < 256; ++v)
      ASSERT_EQ(static_cast<std::uint8_t>(out[v]),
                gf.mul(uc, static_cast<std::uint8_t>(v)))
          << c << "*" << v;
  }
}

TEST(Gf256, DispatchedKernelsMatchScalarForEveryCoefficient) {
  const auto& gf = Gf256::instance();
  const auto src_all = random_bytes(8193, 11);
  const auto dst_all = random_bytes(8193, 12);
  for (const std::size_t len : kKernelLens) {
    const auto src = std::span<const std::byte>(src_all).first(len);
    for (unsigned c = 0; c < 256; ++c) {
      const auto uc = static_cast<std::uint8_t>(c);
      std::vector<std::byte> got(dst_all.begin(), dst_all.begin() + len);
      std::vector<std::byte> want = got;
      gf.mul_acc(got, src, uc);
      gf256_mul_acc_scalar(want, src, uc);
      ASSERT_EQ(got, want) << "mul_acc len=" << len << " c=" << c;
      // One-input, one-output mul_rows: the fused kernel's dst = c·src.
      const std::span<const std::byte> in[] = {src};
      const std::span<std::byte> out[] = {got};
      gf.mul_rows(&uc, in, out);
      std::fill(want.begin(), want.end(), std::byte{0});
      gf256_mul_acc_scalar(want, src, uc);
      ASSERT_EQ(got, want) << "mul_rows len=" << len << " c=" << c;
    }
  }
}

constexpr std::size_t kGuard = 64;
constexpr std::byte kPoison{0xA5};

// True when every byte of buf outside [kGuard + at, kGuard + at + len) still
// holds the poison it was filled with.
bool guards_intact(const std::vector<std::byte>& buf, std::size_t at,
                   std::size_t len) {
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (i >= kGuard + at && i < kGuard + at + len) continue;
    if (buf[i] != kPoison) return false;
  }
  return true;
}

TEST(Gf256, KernelsHandleMisalignmentAndStayInBounds) {
  // src and dst start at every offset 0..31 inside larger buffers; the
  // guard bytes around dst must come back untouched.
  const auto& gf = Gf256::instance();
  sim::Rng rng(13);
  for (const std::size_t len : {std::size_t{1}, std::size_t{31},
                                std::size_t{33}, std::size_t{65},
                                std::size_t{4095}}) {
    const auto src_buf = random_bytes(len + 32, len);
    for (std::size_t sa = 0; sa < 32; ++sa) {
      for (std::size_t da = 0; da < 32; ++da) {
        const auto c = static_cast<std::uint8_t>(1 + rng.next_below(255));
        const auto src = std::span<const std::byte>(src_buf).subspan(sa, len);
        std::vector<std::byte> buf(kGuard + 32 + len + kGuard, kPoison);
        std::vector<std::byte> ref(len, kPoison);
        const auto dst = std::span<std::byte>(buf).subspan(kGuard + da, len);
        gf.mul_acc(dst, src, c);
        gf256_mul_acc_scalar(ref, src, c);
        ASSERT_TRUE(std::equal(dst.begin(), dst.end(), ref.begin()))
            << "len=" << len << " src+" << sa << " dst+" << da;
        ASSERT_TRUE(guards_intact(buf, da, len))
            << "guard clobbered, len=" << len << " dst+" << da;
      }
    }
  }
}

TEST(Gf256, MulRowsHandlesMisalignmentAndStaysInBounds) {
  // The fused kernel production RS runs: 1..5 outputs (5 splits into a
  // group of four plus one) from three inputs, every input and output at
  // its own offset inside a guarded buffer.
  const auto& gf = Gf256::instance();
  constexpr std::size_t kIn = 3;
  sim::Rng rng(14);
  for (const std::size_t len : {std::size_t{1}, std::size_t{31},
                                std::size_t{33}, std::size_t{65},
                                std::size_t{4095}}) {
    std::vector<std::vector<std::byte>> src_bufs;
    for (std::size_t i = 0; i < kIn; ++i)
      src_bufs.push_back(random_bytes(len + 32, len * 10 + i));
    for (std::size_t nout = 1; nout <= 5; ++nout) {
      std::vector<std::uint8_t> coeffs(nout * kIn);
      std::vector<std::vector<std::byte>> bufs(
          nout, std::vector<std::byte>(kGuard + 32 + len + kGuard));
      std::vector<std::vector<std::byte>> refs(nout,
                                               std::vector<std::byte>(len));
      for (std::size_t sa = 0; sa < 32; ++sa) {
        for (std::size_t da = 0; da < 32; ++da) {
          for (auto& c : coeffs)
            c = static_cast<std::uint8_t>(rng.next_below(256));
          std::vector<std::span<const std::byte>> in;
          for (std::size_t i = 0; i < kIn; ++i)
            in.push_back(std::span<const std::byte>(src_bufs[i])
                             .subspan((sa + 11 * i) % 32, len));
          std::vector<std::span<std::byte>> out, ref;
          for (std::size_t j = 0; j < nout; ++j) {
            std::fill(bufs[j].begin(), bufs[j].end(), kPoison);
            out.push_back(std::span<std::byte>(bufs[j]).subspan(
                kGuard + (da + 5 * j) % 32, len));
            ref.push_back(refs[j]);
          }
          gf.mul_rows(coeffs.data(), in, out);
          scalar_dot(coeffs.data(), in, ref);
          for (std::size_t j = 0; j < nout; ++j) {
            ASSERT_TRUE(std::equal(out[j].begin(), out[j].end(),
                                   refs[j].begin()))
                << "len=" << len << " nout=" << nout << " out " << j
                << " src+" << sa << " dst+" << da;
            ASSERT_TRUE(guards_intact(bufs[j], (da + 5 * j) % 32, len))
                << "guard clobbered, len=" << len << " nout=" << nout
                << " out " << j << " dst+" << da;
          }
        }
      }
    }
  }
}

// Scalar-only RS: out[j] = XOR_i coeffs[j][i] · in[i] through the portable
// reference kernel — what the codec computes on a CPU without AVX2.
using Shards = std::vector<std::vector<std::byte>>;

void scalar_rows(const GfMatrix& m, const std::vector<std::size_t>& rows,
                 const std::vector<const std::vector<std::byte>*>& in,
                 const std::vector<std::vector<std::byte>*>& out) {
  for (std::size_t j = 0; j < out.size(); ++j) {
    std::fill(out[j]->begin(), out[j]->end(), std::byte{0});
    for (std::size_t i = 0; i < in.size(); ++i)
      gf256_mul_acc_scalar(*out[j], *in[i], m.at(rows[j], i));
  }
}

Shards scalar_encode(int k, int m, const Shards& data) {
  const auto enc = GfMatrix::rs_encode_matrix(static_cast<std::size_t>(k),
                                              static_cast<std::size_t>(m));
  Shards parity(static_cast<std::size_t>(m),
                std::vector<std::byte>(data[0].size()));
  std::vector<std::size_t> rows;
  std::vector<const std::vector<std::byte>*> in;
  std::vector<std::vector<std::byte>*> out;
  for (auto& s : data) in.push_back(&s);
  for (int p = 0; p < m; ++p) {
    rows.push_back(static_cast<std::size_t>(k + p));
    out.push_back(&parity[static_cast<std::size_t>(p)]);
  }
  scalar_rows(enc, rows, in, out);
  return parity;
}

using RsGeometry = std::pair<int, int>;
// Geometries cover one, two and a split (4+1) group of fused outputs;
// lengths are never a multiple of 32.
constexpr RsGeometry kRsGeometries[] = {{4, 2}, {6, 3}, {10, 4}, {5, 5}};
constexpr std::size_t kRsLens[] = {1, 31, 33, 1000, 4097, 16411};

TEST(ReedSolomon, EncodeMatchesScalarReference) {
  for (const auto& [k, m] : kRsGeometries) {
    ReedSolomon rs(k, m);
    for (const std::size_t len : kRsLens) {
      Shards data;
      for (int d = 0; d < k; ++d)
        data.push_back(
            random_bytes(len, len * 100 + static_cast<std::size_t>(d)));
      Shards parity(static_cast<std::size_t>(m), std::vector<std::byte>(len));
      std::vector<std::span<const std::byte>> dv(data.begin(), data.end());
      std::vector<std::span<std::byte>> pv(parity.begin(), parity.end());
      rs.encode(dv, pv);
      EXPECT_EQ(parity, scalar_encode(k, m, data))
          << "RS(" << k << "," << m << ") len=" << len;
    }
  }
}

TEST(ReedSolomon, ReconstructVerifyAndDeltaMatchScalarReference) {
  for (const auto& [k, m] : kRsGeometries) {
    ReedSolomon rs(k, m);
    const auto total = static_cast<std::size_t>(k + m);
    for (const std::size_t len : kRsLens) {
      Shards golden;
      for (int d = 0; d < k; ++d)
        golden.push_back(
            random_bytes(len, len * 7 + static_cast<std::size_t>(d)));
      for (auto& p : scalar_encode(k, m, golden)) golden.push_back(p);
      std::vector<std::span<const std::byte>> all(golden.begin(), golden.end());
      EXPECT_TRUE(rs.verify(all)) << "RS(" << k << "," << m << ") len=" << len;

      // Erase m shards — first the leading data shards, then the parity —
      // and rebuild them from the scalar-encoded survivors.
      for (const bool erase_parity : {false, true}) {
        Shards work = golden;
        std::unique_ptr<bool[]> present(new bool[total]);
        for (std::size_t i = 0; i < total; ++i) {
          const bool erased = erase_parity
                                  ? i >= static_cast<std::size_t>(k)
                                  : i < static_cast<std::size_t>(m);
          present[i] = !erased;
          if (erased)
            std::fill(work[i].begin(), work[i].end(), std::byte{0xEE});
        }
        std::vector<std::span<std::byte>> views(work.begin(), work.end());
        rs.reconstruct(views, std::span<const bool>(present.get(), total));
        EXPECT_EQ(work, golden) << "RS(" << k << "," << m << ") len=" << len
                                << " erase_parity=" << erase_parity;
      }

      // A flipped byte in the (scalar-loop) tail of the last parity shard.
      golden.back().back() ^= std::byte{0x01};
      EXPECT_FALSE(rs.verify(all)) << "RS(" << k << "," << m << ") len=" << len;
      golden.back().back() ^= std::byte{0x01};

      const auto delta = random_bytes(len, len + 5);
      for (int p = 0; p < m; ++p) {
        auto got = golden[static_cast<std::size_t>(k + p)];
        auto want = got;
        rs.apply_delta(got, p, k - 1, delta);
        gf256_mul_acc_scalar(want, delta, rs.coeff(p, k - 1));
        EXPECT_EQ(got, want) << "apply_delta p=" << p << " len=" << len;
      }
    }
  }
}

TEST(ReedSolomon, ScalarOnlyRoundTrip) {
  // A CPU without AVX2 runs only the scalar kernels: encode, lose m data
  // shards, decode through the inverted survivor rows — all scalar.
  const int k = 4, m = 2;
  const std::size_t len = 4097;
  Shards shards;
  for (int d = 0; d < k; ++d)
    shards.push_back(random_bytes(len, 40 + static_cast<std::size_t>(d)));
  for (auto& p : scalar_encode(k, m, shards)) shards.push_back(p);
  const Shards golden = shards;

  const auto enc = GfMatrix::rs_encode_matrix(k, m);
  const std::vector<std::size_t> survivors = {2, 3, 4, 5};  // 0, 1 lost
  GfMatrix sub(k, k);
  for (std::size_t r = 0; r < survivors.size(); ++r)
    for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c)
      sub.at(r, c) = enc.at(survivors[r], c);
  const GfMatrix decode = sub.inverted();
  Shards lost(2, std::vector<std::byte>(len, std::byte{0xEE}));
  std::vector<const std::vector<std::byte>*> in;
  for (const std::size_t s : survivors) in.push_back(&shards[s]);
  scalar_rows(decode, {0, 1}, in, {&lost[0], &lost[1]});
  EXPECT_EQ(lost[0], golden[0]);
  EXPECT_EQ(lost[1], golden[1]);
}

TEST(GfMatrix, InverseRoundTrip) {
  const auto& gf = Gf256::instance();
  GfMatrix m(3, 3);
  // A known-invertible Vandermonde-ish matrix.
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      m.at(r, c) = gf.pow(gf.exp(static_cast<unsigned>(r + 1)),
                          static_cast<unsigned>(c));
  const GfMatrix prod = m.multiplied(m.inverted());
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(prod.at(r, c), r == c ? 1 : 0);
}

TEST(GfMatrix, SingularDetected) {
  GfMatrix m(2, 2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 1;
  m.at(1, 1) = 2;
  EXPECT_THROW(m.inverted(), dpc::CheckFailure);
}

TEST(ReedSolomon, SystematicEncodePreservesData) {
  // The top of the encode matrix is the identity → parity-only output.
  ReedSolomon rs(4, 2);
  std::vector<std::vector<std::byte>> data(4, std::vector<std::byte>(128));
  sim::Rng rng(7);
  for (auto& s : data)
    for (auto& b : s) b = static_cast<std::byte>(rng.next_below(256));
  std::vector<std::vector<std::byte>> parity(2,
                                             std::vector<std::byte>(128));
  std::vector<std::span<const std::byte>> dv(data.begin(), data.end());
  std::vector<std::span<std::byte>> pv(parity.begin(), parity.end());
  rs.encode(dv, pv);

  std::vector<std::span<const std::byte>> all;
  for (auto& s : data) all.emplace_back(s);
  for (auto& s : parity) all.emplace_back(s);
  EXPECT_TRUE(rs.verify(all));
  // Corrupt a byte → verify fails.
  parity[0][5] ^= std::byte{1};
  EXPECT_FALSE(rs.verify(all));
}

using RsParam = std::tuple<int, int, int>;  // k, m, erasures

class RsReconstruct : public ::testing::TestWithParam<RsParam> {};

TEST_P(RsReconstruct, AnyKSurviveSuffices) {
  const auto [k, m, erasures] = GetParam();
  ReedSolomon rs(k, m);
  const std::size_t len = 256;
  sim::Rng rng(static_cast<std::uint64_t>(k * 100 + m * 10 + erasures));

  std::vector<std::vector<std::byte>> shards(
      static_cast<std::size_t>(k + m), std::vector<std::byte>(len));
  for (int d = 0; d < k; ++d)
    for (auto& b : shards[static_cast<std::size_t>(d)])
      b = static_cast<std::byte>(rng.next_below(256));
  {
    std::vector<std::span<const std::byte>> dv;
    for (int d = 0; d < k; ++d) dv.emplace_back(shards[static_cast<std::size_t>(d)]);
    std::vector<std::span<std::byte>> pv;
    for (int p = 0; p < m; ++p) pv.emplace_back(shards[static_cast<std::size_t>(k + p)]);
    rs.encode(dv, pv);
  }
  const auto golden = shards;

  // Erase `erasures` random shards.
  std::vector<bool> present_vec(static_cast<std::size_t>(k + m), true);
  int erased = 0;
  while (erased < erasures) {
    const auto victim = rng.next_below(static_cast<std::uint64_t>(k + m));
    if (!present_vec[victim]) continue;
    present_vec[victim] = false;
    std::fill(shards[victim].begin(), shards[victim].end(), std::byte{0xEE});
    ++erased;
  }
  std::unique_ptr<bool[]> present(new bool[static_cast<std::size_t>(k + m)]);
  for (int i = 0; i < k + m; ++i)
    present[static_cast<std::size_t>(i)] = present_vec[static_cast<std::size_t>(i)];

  std::vector<std::span<std::byte>> views(shards.begin(), shards.end());
  rs.reconstruct(views, std::span<const bool>(present.get(),
                                              static_cast<std::size_t>(k + m)));
  for (int i = 0; i < k + m; ++i)
    EXPECT_EQ(shards[static_cast<std::size_t>(i)],
              golden[static_cast<std::size_t>(i)])
        << "shard " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RsReconstruct,
    ::testing::Values(RsParam{4, 2, 1}, RsParam{4, 2, 2}, RsParam{2, 1, 1},
                      RsParam{6, 3, 3}, RsParam{8, 4, 4}, RsParam{10, 4, 2},
                      RsParam{3, 2, 2}, RsParam{5, 5, 5}));

TEST(ReedSolomon, TooManyErasuresRejected) {
  ReedSolomon rs(4, 2);
  std::vector<std::vector<std::byte>> shards(6, std::vector<std::byte>(16));
  std::vector<std::span<std::byte>> views(shards.begin(), shards.end());
  bool present[6] = {true, true, true, false, false, false};
  EXPECT_THROW(rs.reconstruct(views, present), dpc::CheckFailure);
}

TEST(ReedSolomon, DeltaParityMatchesFullReencode) {
  // Paper path: an 8K write touches one shard; parity is updated via
  // delta. Must equal re-encoding the full stripe.
  ReedSolomon rs(4, 2);
  const std::size_t len = 512;
  sim::Rng rng(99);
  std::vector<std::vector<std::byte>> data(4, std::vector<std::byte>(len));
  for (auto& s : data)
    for (auto& b : s) b = static_cast<std::byte>(rng.next_below(256));
  std::vector<std::vector<std::byte>> parity(2, std::vector<std::byte>(len));
  {
    std::vector<std::span<const std::byte>> dv(data.begin(), data.end());
    std::vector<std::span<std::byte>> pv(parity.begin(), parity.end());
    rs.encode(dv, pv);
  }

  // Mutate shard 2, apply delta to both parities.
  std::vector<std::byte> updated(len);
  for (auto& b : updated) b = static_cast<std::byte>(rng.next_below(256));
  std::vector<std::byte> delta(len);
  for (std::size_t i = 0; i < len; ++i) delta[i] = data[2][i] ^ updated[i];
  data[2] = updated;
  for (int p = 0; p < 2; ++p) rs.apply_delta(parity[static_cast<std::size_t>(p)], p, 2, delta);

  std::vector<std::vector<std::byte>> expect(2, std::vector<std::byte>(len));
  {
    std::vector<std::span<const std::byte>> dv(data.begin(), data.end());
    std::vector<std::span<std::byte>> pv(expect.begin(), expect.end());
    rs.encode(dv, pv);
  }
  EXPECT_EQ(parity, expect);
}

TEST(ReedSolomon, CostModelFavorsDpu) {
  EXPECT_GT(ReedSolomon::host_encode_cost(1 << 20).ns,
            ReedSolomon::dpu_encode_cost(1 << 20).ns);
  EXPECT_EQ(ReedSolomon::host_encode_cost(0).ns, 0);
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros → 0x8A9136AA.
  std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  // "123456789" → 0xE3069283.
  const char digits[] = "123456789";
  EXPECT_EQ(crc32c(std::as_bytes(std::span{digits, 9})), 0xE3069283u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::vector<std::byte> buf(1000);
  sim::Rng rng(3);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next_below(256));
  const auto full = crc32c(buf);
  // CRC chaining: crc(a||b) computed by seeding with crc(a).
  const auto part = crc32c(std::span<const std::byte>(buf).subspan(300),
                           crc32c(std::span<const std::byte>(buf).first(300)));
  EXPECT_EQ(part, full);
}

TEST(Crc32c, DetectsBitFlip) {
  std::vector<std::byte> buf(4096, std::byte{0x5A});
  const auto a = crc32c(buf);
  buf[2048] ^= std::byte{0x01};
  EXPECT_NE(crc32c(buf), a);
}

TEST(Crc32c, BackendNameIsKnown) {
  const std::string name = crc32c_backend();
  EXPECT_TRUE(name == "sse4.2" || name == "slice8") << name;
}

TEST(Crc32c, AllBackendsAgreeAcrossSizesAndSeeds) {
  // Cross-check the dispatched backend (hardware when the CPU has SSE4.2)
  // against both software paths, across every 8-byte-remainder class, with
  // unaligned starts and nonzero seeds.
  // 767..769 straddle the 3x256 B round, 24575..24577 the 3x8 KiB round;
  // 1 MiB+7 runs every round and both tails.
  sim::Rng rng(7);
  std::vector<std::byte> buf((1 << 20) + 7 + 64);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next_below(256));
  const std::size_t sizes[] = {0,     1,     2,     3,     7,    8,
                               9,     15,    16,    17,    63,   64,
                               65,    511,   512,   767,   768,  769,
                               1000,  4096,  8192,  24575, 24576, 24577,
                               (1 << 20) + 7};
  for (const std::size_t size : sizes) {
    for (const std::size_t align : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{5}}) {
      const auto s =
          std::span<const std::byte>(buf).subspan(align, size);
      for (const std::uint32_t seed : {0u, 1u, 0xDEADBEEFu}) {
        const auto ref = crc32c_bytewise(s, seed);
        EXPECT_EQ(crc32c(s, seed), ref) << size << "+" << align;
        EXPECT_EQ(crc32c_slice8(s, seed), ref) << size << "+" << align;
      }
    }
  }
}

TEST(Crc32c, ChainSplitAtThreeStreamBoundary) {
  // One payload checksummed in pieces whose seams fall at and just past a
  // 3x8 KiB round: each call restarts the 3-stream kernel from a seed, so
  // the joins must compose exactly like the single pass.
  sim::Rng rng(11);
  std::vector<std::byte> buf(3 * 24576 + 1000);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next_below(256));
  const std::span<const std::byte> all(buf);
  const auto ref = crc32c_bytewise(all, 0x1234u);
  std::uint32_t c = 0x1234u;
  c = crc32c(all.first(24576), c);
  c = crc32c(all.subspan(24576, 24576 + 769), c);
  c = crc32c(all.subspan(2 * 24576 + 769), c);
  EXPECT_EQ(c, ref);
  EXPECT_EQ(crc32c(all, 0x1234u), ref);
}

}  // namespace
}  // namespace dpc::ec
