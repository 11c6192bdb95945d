#include "ec/reed_solomon.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace dpc::ec {

ReedSolomon::ReedSolomon(int k, int m)
    : k_(k),
      m_(m),
      encode_matrix_(GfMatrix::rs_encode_matrix(static_cast<std::size_t>(k),
                                                static_cast<std::size_t>(m))) {
  DPC_CHECK(k >= 1 && m >= 1 && k + m <= 255);
}

void ReedSolomon::encode(
    std::span<const std::span<const std::byte>> data,
    std::span<const std::span<std::byte>> parity) const {
  DPC_CHECK(data.size() == static_cast<std::size_t>(k_));
  DPC_CHECK(parity.size() == static_cast<std::size_t>(m_));
  // The parity rows k..k+m-1 of the encode matrix are contiguous.
  Gf256::instance().mul_rows(encode_matrix_.row(static_cast<std::size_t>(k_)),
                             data, parity);
}

void ReedSolomon::reconstruct(std::span<const std::span<std::byte>> shards,
                              std::span<const bool> present) const {
  const auto k = static_cast<std::size_t>(k_);
  const auto total = static_cast<std::size_t>(k_ + m_);
  DPC_CHECK(shards.size() == total && present.size() == total);
  const std::size_t len = shards[0].size();
  for (const auto& s : shards) DPC_CHECK(s.size() == len);

  std::size_t have = 0;
  for (bool p : present) have += p ? 1 : 0;
  DPC_CHECK_MSG(have >= k,
                "need " << k_ << " shards, only " << have << " present");
  if (have == total) return;

  // Pick the first k present shards; their encode-matrix rows form a k x k
  // submatrix whose inverse maps them back to the data shards.
  std::vector<std::size_t> rows;
  rows.reserve(k);
  for (std::size_t i = 0; i < total && rows.size() < k; ++i)
    if (present[i]) rows.push_back(i);

  GfMatrix sub(k, k);
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < k; ++c)
      sub.at(r, c) = encode_matrix_.at(rows[r], c);
  const GfMatrix decode = sub.inverted();

  const auto& gf = Gf256::instance();
  std::vector<std::uint8_t> coeffs;
  std::vector<std::span<std::byte>> missing;
  // Rebuild missing *data* shards first, straight from the survivors (the
  // outputs are absent shards, so they never alias an input).
  for (std::size_t d = 0; d < k; ++d) {
    if (present[d]) continue;
    coeffs.insert(coeffs.end(), decode.row(d), decode.row(d) + k);
    missing.push_back(shards[d]);
  }
  if (!missing.empty()) {
    std::vector<std::span<const std::byte>> survivors;
    survivors.reserve(k);
    for (const std::size_t r : rows) survivors.emplace_back(shards[r]);
    gf.mul_rows(coeffs.data(), survivors, missing);
  }

  // Then re-encode any missing parity from the (now complete) data shards.
  coeffs.clear();
  missing.clear();
  for (std::size_t p = k; p < total; ++p) {
    if (present[p]) continue;
    coeffs.insert(coeffs.end(), encode_matrix_.row(p),
                  encode_matrix_.row(p) + k);
    missing.push_back(shards[p]);
  }
  if (!missing.empty()) {
    const std::vector<std::span<const std::byte>> data(shards.begin(),
                                                       shards.begin() + k_);
    gf.mul_rows(coeffs.data(), data, missing);
  }
}

bool ReedSolomon::verify(
    std::span<const std::span<const std::byte>> shards) const {
  const auto k = static_cast<std::size_t>(k_);
  const auto m = static_cast<std::size_t>(m_);
  DPC_CHECK(shards.size() == k + m);
  const std::size_t len = shards[0].size();

  std::vector<std::byte> expect(m * len);
  std::vector<std::span<std::byte>> views;
  views.reserve(m);
  for (std::size_t p = 0; p < m; ++p)
    views.emplace_back(expect.data() + p * len, len);
  Gf256::instance().mul_rows(encode_matrix_.row(k), shards.first(k), views);
  for (std::size_t p = 0; p < m; ++p)
    if (!std::equal(views[p].begin(), views[p].end(), shards[k + p].begin(),
                    shards[k + p].end()))
      return false;
  return true;
}

std::uint8_t ReedSolomon::coeff(int p, int d) const {
  DPC_CHECK(p >= 0 && p < m_ && d >= 0 && d < k_);
  return encode_matrix_.at(static_cast<std::size_t>(k_ + p),
                           static_cast<std::size_t>(d));
}

void ReedSolomon::apply_delta(std::span<std::byte> parity, int p, int d,
                              std::span<const std::byte> delta) const {
  Gf256::instance().mul_acc(parity, delta, coeff(p, d));
}

sim::Nanos ReedSolomon::host_encode_cost(std::uint64_t stripe_bytes) {
  return sim::Nanos{static_cast<std::int64_t>(
      static_cast<double>(stripe_bytes) * sim::calib::kHostEcNsPerByte)};
}

sim::Nanos ReedSolomon::dpu_encode_cost(std::uint64_t stripe_bytes) {
  return sim::Nanos{static_cast<std::int64_t>(
      static_cast<double>(stripe_bytes) * sim::calib::kDpuEcNsPerByte)};
}

}  // namespace dpc::ec
