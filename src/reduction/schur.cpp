#include "reduction/schur.hpp"

#include <cmath>
#include <stdexcept>

#include "chol/cholesky.hpp"

namespace er {

SchurResult schur_complement(const CscMatrix& a,
                             const std::vector<index_t>& keep,
                             const std::vector<index_t>& elim,
                             real_t drop_tol) {
  const index_t n = a.cols();
  if (static_cast<index_t>(keep.size() + elim.size()) != n)
    throw std::invalid_argument("schur_complement: keep+elim must cover n");

  SchurResult out;
  out.keep = keep;
  const auto nk = static_cast<index_t>(keep.size());
  const auto ne = static_cast<index_t>(elim.size());
  if (ne == 0) {
    out.matrix = a.extract(keep, keep);
    return out;
  }

  const CscMatrix a_kk = a.extract(keep, keep);
  const CscMatrix a_ek = a.extract(elim, keep);  // ne x nk
  const CscMatrix a_ee = a.extract(elim, elim);

  const CholFactor f = cholesky(a_ee);

  // S column by column: s_j = a_kk(:,j) - a_ek^T * (a_ee^{-1} a_ek(:,j)).
  TripletMatrix t(nk, nk);
  std::vector<real_t> rhs(static_cast<std::size_t>(ne));
  std::vector<real_t> correction(static_cast<std::size_t>(nk));
  const auto& ek_cp = a_ek.col_ptr();
  const auto& ek_ri = a_ek.row_ind();
  const auto& ek_vv = a_ek.values();

  const auto& kk_cp = a_kk.col_ptr();
  const auto& kk_ri = a_kk.row_ind();
  const auto& kk_vv = a_kk.values();

  for (index_t j = 0; j < nk; ++j) {
    const offset_t cb = ek_cp[static_cast<std::size_t>(j)];
    const offset_t ce = ek_cp[static_cast<std::size_t>(j) + 1];
    // Columns of A_EK with no eliminated coupling need no correction.
    const bool coupled = cb < ce;
    const real_t diag_scale = std::max(std::abs(a_kk.at(j, j)), real_t{1.0});
    const real_t cut = drop_tol * diag_scale;

    if (coupled) {
      std::fill(rhs.begin(), rhs.end(), 0.0);
      for (offset_t k = cb; k < ce; ++k)
        rhs[static_cast<std::size_t>(ek_ri[static_cast<std::size_t>(k)])] =
            ek_vv[static_cast<std::size_t>(k)];
      const std::vector<real_t> y = f.solve(rhs);
      a_ek.multiply_transpose(y, correction);
      // s(:, j) = a_kk(:, j) - correction: scatter the sparse column into
      // the (negated) dense correction, then emit nonzeros.
      for (real_t& v : correction) v = -v;
      for (offset_t k = kk_cp[static_cast<std::size_t>(j)];
           k < kk_cp[static_cast<std::size_t>(j) + 1]; ++k)
        correction[static_cast<std::size_t>(
            kk_ri[static_cast<std::size_t>(k)])] +=
            kk_vv[static_cast<std::size_t>(k)];
      for (index_t i = 0; i < nk; ++i) {
        const real_t v = correction[static_cast<std::size_t>(i)];
        if (std::abs(v) > cut) t.add(i, j, v);
      }
    } else {
      for (offset_t k = kk_cp[static_cast<std::size_t>(j)];
           k < kk_cp[static_cast<std::size_t>(j) + 1]; ++k)
        t.add(kk_ri[static_cast<std::size_t>(k)], j,
              kk_vv[static_cast<std::size_t>(k)]);
    }
  }
  out.matrix = CscMatrix::from_triplets(t);
  return out;
}

}  // namespace er
