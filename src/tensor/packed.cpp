#include "tensor/packed.hpp"

#include <cmath>

namespace fit::tensor {

std::size_t TensorSizes::unfused_peak() const {
  // The unfused schedule (paper Listing 1) keeps the input and output
  // of one contraction live at a time: A+O1, O1+O2, O2+O3, O3+C.
  const std::size_t s1 = a + o1, s2 = o1 + o2, s3 = o2 + o3, s4 = o3 + c;
  return std::max(std::max(s1, s2), std::max(s3, s4));
}

TensorSizes packed_sizes(std::size_t n, const Irreps& irreps) {
  FIT_REQUIRE(irreps.n_orbitals() == n, "irrep map extent mismatch");
  const std::size_t p = npairs(n);
  TensorSizes sz;
  sz.a = p * p;
  sz.o1 = n * n * p;
  sz.o2 = p * p;
  sz.o3 = p * n * n;
  // Exact spatial reduction: count pairs (i >= j) per irrep; C = sum
  // of squares. An irrep h with k orbitals makes k(k+1)/2 such pairs of
  // irrep 0, and two irreps h1 < h2 make k1*k2 pairs of irrep h1^h2.
  const std::size_t order = irreps.order();
  std::vector<std::size_t> count(order, 0), pop(order, 0);
  for (std::size_t i = 0; i < n; ++i) ++count[irreps.of(i)];
  for (std::size_t h1 = 0; h1 < order; ++h1) {
    pop[0] += count[h1] * (count[h1] + 1) / 2;
    for (std::size_t h2 = h1 + 1; h2 < order; ++h2)
      pop[h1 ^ h2] += count[h1] * count[h2];
  }
  sz.c = 0;
  for (auto c : pop) sz.c += c * c;
  return sz;
}

ApproxSizes approx_sizes(double n, double s) {
  const double n4 = n * n * n * n;
  return ApproxSizes{n4 / 4, n4 / 2, n4 / 4, n4 / 2, n4 / (4 * s)};
}

void PackedA::unpack_kl(std::size_t k, std::size_t l, Matrix& out) const {
  FIT_REQUIRE(out.rows() == n_ && out.cols() == n_,
              "unpack_kl: output must be n x n");
  const std::size_t col = pack_pair_sym(k, l);
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = data_(pack_pair(i, j), col);
      out(i, j) = v;
      out(j, i) = v;
    }
}

void PackedO2::unpack_ab(std::size_t a, std::size_t b, Matrix& out) const {
  FIT_REQUIRE(out.rows() == n_ && out.cols() == n_,
              "unpack_ab: output must be n x n");
  // The (a, b) row of the packed view holds the (kl) pairs
  // contiguously in canonical k >= l order.
  const double* row = data_.row(pack_pair_sym(a, b));
  for (std::size_t k = 0; k < n_; ++k) {
    const double* krow = row + pack_pair(k, 0);
    for (std::size_t l = 0; l <= k; ++l) {
      out(k, l) = krow[l];
      out(l, k) = krow[l];
    }
  }
}

PackedC::PackedC(std::size_t n, Irreps irreps)
    : n_(n), irreps_(std::move(irreps)) {
  FIT_REQUIRE(irreps_.n_orbitals() == n, "irrep map extent mismatch");
  const std::size_t p = npairs(n);
  pair_irrep_.resize(p);
  pair_pos_.resize(p);
  std::vector<std::size_t> count(irreps_.order(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const std::size_t pp = pack_pair(i, j);
      const std::uint8_t h = irreps_.pair_irrep(i, j);
      pair_irrep_[pp] = h;
      pair_pos_[pp] = static_cast<std::uint32_t>(count[h]++);
    }
  }
  blocks_.reserve(irreps_.order());
  for (unsigned h = 0; h < irreps_.order(); ++h)
    blocks_.emplace_back(count[h], count[h]);
}

std::size_t PackedC::stored_elements() const {
  std::size_t total = 0;
  for (const auto& b : blocks_) total += b.size();
  return total;
}

double PackedC::get(std::size_t a, std::size_t b, std::size_t c,
                    std::size_t d) const {
  const std::size_t pab = pack_pair_sym(a, b);
  const std::size_t pcd = pack_pair_sym(c, d);
  if (pair_irrep_[pab] != pair_irrep_[pcd]) return 0.0;
  return blocks_[pair_irrep_[pab]](pair_pos_[pab], pair_pos_[pcd]);
}

void PackedC::add(std::size_t a, std::size_t b, std::size_t c, std::size_t d,
                  double v) {
  const std::size_t pab = pack_pair_sym(a, b);
  const std::size_t pcd = pack_pair_sym(c, d);
  if (pair_irrep_[pab] != pair_irrep_[pcd]) {
    // Spatially forbidden entries must be numerically zero; tolerate
    // exact zeros so generic accumulation loops do not need the check.
    FIT_REQUIRE(v == 0.0, "nonzero write " << v
                          << " to spatially forbidden C entry (" << a << ","
                          << b << "," << c << "," << d << ")");
    return;
  }
  blocks_[pair_irrep_[pab]](pair_pos_[pab], pair_pos_[pcd]) += v;
}

double PackedC::max_abs_diff(const PackedC& other) const {
  FIT_REQUIRE(n_ == other.n_ && irreps_.order() == other.irreps_.order(),
              "comparing incompatible C tensors");
  double m = 0.0;
  for (std::size_t h = 0; h < blocks_.size(); ++h) {
    const Matrix& x = blocks_[h];
    const Matrix& y = other.blocks_[h];
    for (std::size_t i = 0; i < x.rows(); ++i)
      for (std::size_t j = 0; j < x.cols(); ++j)
        m = std::max(m, std::fabs(x(i, j) - y(i, j)));
  }
  return m;
}

double PackedC::norm2() const {
  double acc = 0.0;
  for (const auto& blk : blocks_)
    for (std::size_t i = 0; i < blk.size(); ++i)
      acc += blk.data()[i] * blk.data()[i];
  return std::sqrt(acc);
}

}  // namespace fit::tensor
