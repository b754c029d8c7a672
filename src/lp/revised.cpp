#include "lp/revised.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.h"

namespace vm1::lp::detail {

namespace {
// Relative disagreement tolerated between the FTRANed pivot element and the
// BTRANed one before the factorization is declared drifted and rebuilt.
constexpr double kConsistencyTol = 1e-7;
// Residual bound for trusting a verdict against the original matrix.
constexpr double kVerifyTol = 1e-6;
// A steepest-edge weight update that cancels below this fraction of its
// summands has lost too many digits and is recomputed exactly.
constexpr double kCancelFrac = 1e-2;
}  // namespace

void SolveWorkspace::ensure(int m, int ncols) {
  if (static_cast<int>(alpha.size()) < m) {
    alpha.resize(m);
    rho.resize(m);
    d.resize(m);
    y.resize(m);
    tau.resize(m);
    flip_delta.resize(m);
    relabel.resize(m);
  }
  if (static_cast<int>(rowvals.size()) < ncols) {
    rowvals.resize(ncols);
    col_stamp.resize(ncols, 0);
  }
}

RevisedCore::RevisedCore(const Problem& p, const SimplexSolver::Options& opts)
    : opts_(opts),
      A_(&p.columns()),
      n_struct_(p.num_variables()),
      m_(p.num_constraints()) {
  dense_inv_ = m_ > 0 && m_ <= opts.dense_inverse_dim;
  // In eta-file mode long intervals grow the file (FTRAN/BTRAN walk every
  // eta), so the automatic choice is a flat budget plus slack for bigger
  // bases. The explicit inverse has no chain to walk — refactorization is
  // then purely numerical hygiene and the interval stretches accordingly.
  // Per-pivot consistency checks force an immediate rebuild on drift
  // regardless of the interval.
  refactor_interval_ = opts.refactor_interval > 0 ? opts.refactor_interval
                       : dense_inv_               ? 4096
                                                  : 128 + 2 * m_;
}

void RevisedCore::size_for(int nart) {
  n_art_begin_ = n_struct_ + m_;
  ncols_ = n_art_begin_ + nart;
  beta_.assign(m_, 0.0);
  ub_.assign(ncols_, kInf);
  cost2_.assign(ncols_, 0.0);
  zrow_.assign(ncols_, 0.0);
  dir_.assign(ncols_, 1.0);
  basis_.assign(m_, -1);
  state_.assign(ncols_, VarState::kAtLower);
  ws_.ensure(m_, ncols_);
}

void RevisedCore::set_state(int j, VarState s) {
  state_[j] = s;
  dir_[j] = (s == VarState::kAtLower) ? 1.0
            : (s == VarState::kAtUpper) ? -1.0
                                        : 0.0;
}

void RevisedCore::load_column(int j, double* x) const {
  std::fill(x, x + m_, 0.0);
  if (j < n_struct_) {
    for (int e = A_->col_ptr[j]; e < A_->col_ptr[j + 1]; ++e) {
      x[A_->row_idx[e]] = A_->val[e];
    }
  } else if (j < n_art_begin_) {
    x[j - n_struct_] = 1.0;
  } else {
    const int k = j - n_art_begin_;
    x[art_row_[k]] = art_sign_[k];
  }
}

void RevisedCore::ftran_column(int j) {
  load_column(j, ws_.alpha.data());
  factor_.ftran(ws_.alpha.data());
}

void RevisedCore::gather_pivot_row(int r) {
  double* rho = ws_.rho.data();
  std::fill(rho, rho + m_, 0.0);
  rho[r] = 1.0;
  factor_.btran(rho);

  const int gen = ++ws_.stamp_gen;
  ws_.support.clear();
  double* rv = ws_.rowvals.data();
  int* stamp = ws_.col_stamp.data();
  auto touch = [&](int j) -> double& {
    if (stamp[j] != gen) {
      stamp[j] = gen;
      rv[j] = 0.0;
      ws_.support.push_back(j);
    }
    return rv[j];
  };
  for (int i = 0; i < m_; ++i) {
    const double ri = rho[i];
    if (ri == 0.0) continue;
    for (int e = A_->row_ptr[i]; e < A_->row_ptr[i + 1]; ++e) {
      touch(A_->col_idx[e]) += ri * A_->rval[e];
    }
    touch(n_struct_ + i) += ri;  // slack column of row i is +e_i
  }
  const int nart = ncols_ - n_art_begin_;
  for (int k = 0; k < nart; ++k) {
    const double ri = rho[art_row_[k]];
    if (ri == 0.0) continue;
    touch(n_art_begin_ + k) += art_sign_[k] * ri;
  }
}

bool RevisedCore::refactorize() {
  static obs::Counter& refactorizations = obs::counter("lp.refactorizations");
  static obs::Histogram& refactor_sec = obs::histogram("lp.refactorize_sec");
  refactorizations.add();
  obs::ScopedTimer st(refactor_sec);

  ws_.cols.clear();
  for (int i = 0; i < m_; ++i) {
    const int j = basis_[i];
    if (j < n_struct_) {
      for (int e = A_->col_ptr[j]; e < A_->col_ptr[j + 1]; ++e) {
        ws_.cols.push(A_->row_idx[e], A_->val[e]);
      }
    } else if (j < n_art_begin_) {
      ws_.cols.push(j - n_struct_, 1.0);
    } else {
      const int k = j - n_art_begin_;
      ws_.cols.push(art_row_[k], art_sign_[k]);
    }
    ws_.cols.close_column();
  }
  if (!factor_.factorize(ws_.cols, opts_.pivot_tol)) return false;
  if (dense_inv_) factor_.collapse();
  // Relabel basis slots onto their factorization pivot rows so FTRAN output
  // is row-indexed directly (column k of the basis was assigned pivot row
  // slot_row[k]). The rows of B^-1 permute with the slots, so the
  // steepest-edge weights move with their basic variables.
  std::copy(basis_.begin(), basis_.end(), ws_.relabel.begin());
  std::copy(dse_w_.begin(), dse_w_.end(), ws_.tau.begin());
  const std::vector<int>& sr = factor_.slot_row();
  for (int k = 0; k < m_; ++k) {
    basis_[sr[k]] = ws_.relabel[k];
    dse_w_[sr[k]] = ws_.tau[k];
  }
  return true;
}

bool RevisedCore::refresh() {
  if (!refactorize()) return false;
  recompute_beta();
  recompute_zrow();
  return true;
}

void RevisedCore::compute_bprime(double* d) const {
  for (int i = 0; i < m_; ++i) d[i] = A_->rhs_norm[i];
  for (int j = 0; j < n_struct_; ++j) {
    const double s = shift_[j];
    if (s == 0.0) continue;
    for (int e = A_->col_ptr[j]; e < A_->col_ptr[j + 1]; ++e) {
      d[A_->row_idx[e]] -= A_->val[e] * s;
    }
  }
}

void RevisedCore::recompute_beta() {
  double* d = ws_.d.data();
  compute_bprime(d);
  for (int j = 0; j < ncols_; ++j) {
    if (state_[j] != VarState::kAtUpper) continue;
    const double u = ub_[j];
    if (u == 0.0) continue;
    if (j < n_struct_) {
      for (int e = A_->col_ptr[j]; e < A_->col_ptr[j + 1]; ++e) {
        d[A_->row_idx[e]] -= A_->val[e] * u;
      }
    } else if (j < n_art_begin_) {
      d[j - n_struct_] -= u;
    }
    // Artificials are never nonbasic at a finite nonzero upper bound.
  }
  factor_.ftran(d);
  for (int i = 0; i < m_; ++i) beta_[i] = d[i];
}

void RevisedCore::recompute_zrow() {
  double* y = ws_.y.data();
  for (int i = 0; i < m_; ++i) y[i] = cost_[basis_[i]];
  factor_.btran(y);
  for (int j = 0; j < n_struct_; ++j) {
    double z = cost_[j];
    for (int e = A_->col_ptr[j]; e < A_->col_ptr[j + 1]; ++e) {
      z -= y[A_->row_idx[e]] * A_->val[e];
    }
    zrow_[j] = z;
  }
  for (int i = 0; i < m_; ++i) zrow_[n_struct_ + i] = cost_[n_struct_ + i] - y[i];
  const int nart = ncols_ - n_art_begin_;
  for (int k = 0; k < nart; ++k) {
    zrow_[n_art_begin_ + k] =
        cost_[n_art_begin_ + k] - art_sign_[k] * y[art_row_[k]];
  }
  // Basic reduced costs are identically zero; pin them so round-off never
  // makes a basic column price as eligible.
  for (int i = 0; i < m_; ++i) zrow_[basis_[i]] = 0.0;
}

bool RevisedCore::residual_ok() {
  double* r = ws_.d.data();
  compute_bprime(r);
  auto subtract = [&](int j, double v) {
    if (v == 0.0) return;
    if (j < n_struct_) {
      for (int e = A_->col_ptr[j]; e < A_->col_ptr[j + 1]; ++e) {
        r[A_->row_idx[e]] -= A_->val[e] * v;
      }
    } else if (j < n_art_begin_) {
      r[j - n_struct_] -= v;
    } else {
      const int k = j - n_art_begin_;
      r[art_row_[k]] -= art_sign_[k] * v;
    }
  };
  for (int i = 0; i < m_; ++i) subtract(basis_[i], beta_[i]);
  for (int j = 0; j < ncols_; ++j) {
    if (state_[j] == VarState::kAtUpper) subtract(j, ub_[j]);
  }
  double worst = 0;
  for (int i = 0; i < m_; ++i) worst = std::max(worst, std::abs(r[i]));
  return worst <= kVerifyTol;
}

int RevisedCore::choose_entering(bool bland) const {
  if (bland) {
    for (int j = 0; j < ncols_; ++j) {
      if (dir_[j] * zrow_[j] < -opts_.tol) return j;
    }
    return -1;
  }
  if (opts_.pricing == Pricing::kDevex) {
    return devex_.choose(zrow_, dir_, opts_.tol);
  }
  // Dantzig: largest reduced-cost improvement (the dense oracle's rule).
  const double* z = zrow_.data();
  const double* d = dir_.data();
  int best = -1;
  double best_score = opts_.tol;
  for (int j = 0; j < ncols_; ++j) {
    const double g = d[j] * z[j];
    if (g < -opts_.tol && -g > best_score) {
      best_score = -g;
      best = j;
    }
  }
  return best;
}

bool RevisedCore::apply_pivot(int r, int q, int leave_dir, double enter_val,
                              bool use_devex) {
  const double arq = ws_.alpha[r];
  if (!factor_.append(r, ws_.alpha.data(), opts_.pivot_tol)) return false;
  const int leaving = basis_[r];
  if (use_devex && opts_.pricing == Pricing::kDevex) {
    devex_.update(q, leaving, arq, ws_.rowvals.data(), ws_.support.data(),
                  static_cast<int>(ws_.support.size()), dir_);
  }
  // Incremental reduced-cost update over the pivot row's support:
  //   z'_j = z_j - (z_q / a_rq) * a_rj.
  const double ratio = zrow_[q] / arq;
  if (ratio != 0.0) {
    const double* rv = ws_.rowvals.data();
    for (int s : ws_.support) {
      if (dir_[s] == 0.0) continue;  // basic / pinned: stays exact zero
      zrow_[s] -= ratio * rv[s];
    }
  }
  set_state(leaving,
            leave_dir > 0 ? VarState::kAtLower : VarState::kAtUpper);
  zrow_[leaving] = -ratio;
  basis_[r] = q;
  set_state(q, VarState::kBasic);
  zrow_[q] = 0.0;
  beta_[r] = enter_val;
  return true;
}

Status RevisedCore::iterate(bool phase1) {
  recompute_zrow();
  devex_.reset(ncols_);
  int stall = 0;
  bool bland = false;
  bool fresh = false;  // the factorization was just rebuilt and still failed
  while (iterations_ < opts_.max_iterations) {
    if (out_of_time()) return Status::kIterLimit;
    if (factor_.updates() >= refactor_interval_) {
      if (!refresh()) return Status::kIterLimit;
    }
    const int j = choose_entering(bland);
    if (j < 0) return Status::kOptimal;
    ++iterations_;

    const double dj = dir_[j];
    ftran_column(j);
    const double* alpha = ws_.alpha.data();

    // Ratio test (identical semantics to the dense oracle).
    double t_max = ub_[j];  // bound-flip distance (may be inf)
    int leave_row = -1;
    int leave_dir = 0;  // +1: leaving var hits lower; -1: hits upper
    for (int i = 0; i < m_; ++i) {
      const double e = dj * alpha[i];
      if (std::abs(e) < opts_.pivot_tol) continue;
      double t;
      int dirn;
      if (e > 0) {
        t = beta_[i] / e;
        dirn = 1;
      } else {
        if (!std::isfinite(ub_[basis_[i]])) continue;
        t = (ub_[basis_[i]] - beta_[i]) / (-e);
        dirn = -1;
      }
      if (t < 0) t = 0;
      if (t < t_max - 1e-12 ||
          (leave_row >= 0 && t < t_max + 1e-12 && bland &&
           basis_[i] < basis_[leave_row])) {
        t_max = t;
        leave_row = i;
        leave_dir = dirn;
      }
    }

    if (!std::isfinite(t_max)) {
      return phase1 ? Status::kInfeasible : Status::kUnbounded;
    }

    if (t_max <= 1e-11) {
      ++stall;
      if (stall > 2 * (m_ + ncols_)) bland = true;
    } else {
      stall = 0;
    }

    if (leave_row < 0) {
      // Bound flip: no basis change, no eta — just shift beta.
      const double t = ub_[j];
      for (int i = 0; i < m_; ++i) beta_[i] -= dj * alpha[i] * t;
      set_state(j, state_[j] == VarState::kAtLower ? VarState::kAtUpper
                                                   : VarState::kAtLower);
      continue;
    }

    const int r = leave_row;
    gather_pivot_row(r);
    const double arq = alpha[r];
    // Consistency: the FTRANed column and BTRANed row must agree on the
    // pivot element; disagreement means the eta file has drifted.
    const bool drifted =
        std::abs(rowval(j) - arq) > kConsistencyTol * std::max(1.0, std::abs(arq));
    if (drifted) {
      if (fresh) return Status::kIterLimit;
      if (!refresh()) return Status::kIterLimit;
      fresh = true;
      continue;
    }

    const double enter_val = (dj > 0) ? t_max : ub_[j] - t_max;
    if (!apply_pivot(r, j, leave_dir, enter_val, /*use_devex=*/!bland)) {
      if (fresh) return Status::kIterLimit;
      if (!refresh()) return Status::kIterLimit;
      fresh = true;
      continue;
    }
    dse_valid_ = false;  // primal pivots do not maintain the dual weights
    for (int i = 0; i < m_; ++i) {
      if (i != r) beta_[i] -= dj * alpha[i] * t_max;
    }
    fresh = false;
  }
  return Status::kIterLimit;
}

double RevisedCore::exact_row_norm2(int i, double* scratch) const {
  std::fill(scratch, scratch + m_, 0.0);
  scratch[i] = 1.0;
  factor_.btran(scratch);
  double s = 0;
  for (int k = 0; k < m_; ++k) s += scratch[k] * scratch[k];
  return s;
}

std::vector<double> RevisedCore::exact_dual_edge_weights() {
  std::vector<double> w(m_);
  for (int i = 0; i < m_; ++i) w[i] = exact_row_norm2(i, ws_.tau.data());
  return w;
}

int RevisedCore::choose_leaving_row(bool bland, bool* above) const {
  int r = -1;
  double best = 0;
  for (int i = 0; i < m_; ++i) {
    double infeas = -beta_[i];
    bool hi = false;
    if (infeas <= opts_.tol) {
      infeas = beta_[i] - ub_[basis_[i]];  // -inf for unbounded columns
      if (!(infeas > opts_.tol)) continue;
      hi = true;
    }
    if (bland) {
      if (r < 0 || basis_[i] < basis_[r]) {
        r = i;
        *above = hi;
      }
      continue;
    }
    const double score = infeas * infeas / dse_w_[i];
    if (score > best) {
      best = score;
      r = i;
      *above = hi;
    }
  }
  return r;
}

int RevisedCore::dual_ratio_test(bool above, double infeas, bool bland,
                                 double* step) {
  using Breakpoint = SolveWorkspace::Breakpoint;
  // Breakpoints: the dual step at which each eligible nonbasic column's
  // reduced cost reaches zero. Columns outside the pivot row's support have
  // a zero entry and never price.
  std::vector<Breakpoint>& br = ws_.breaks;
  br.clear();
  const double* rv = ws_.rowvals.data();
  for (int j : ws_.support) {
    if (j >= n_art_begin_) continue;
    if (state_[j] == VarState::kBasic) continue;
    const double a = rv[j];
    const double arj = above ? -a : a;
    double t;
    if (state_[j] == VarState::kAtLower) {
      if (arj >= -opts_.pivot_tol) continue;
      t = std::max(0.0, zrow_[j]) / (-arj);
    } else {
      if (arj <= opts_.pivot_tol) continue;
      t = std::max(0.0, -zrow_[j]) / arj;
    }
    br.push_back({t, std::abs(a), j});
  }
  ws_.flips.clear();
  if (br.empty()) return -1;

  // Walk the breakpoints in step order. Passing one lowers the dual slope
  // (the remaining primal infeasibility of the row) by |a_j| * u_j, and the
  // column must then flip to its other bound to stay dual feasible; the
  // walk stops at the first breakpoint that would turn the slope
  // non-positive, or whose column has no finite bound to flip to.
  auto later = [](const Breakpoint& x, const Breakpoint& y) {
    return x.t > y.t || (x.t == y.t && x.j > y.j);
  };
  std::make_heap(br.begin(), br.end(), later);
  double slope = infeas;
  auto end = br.end();
  Breakpoint enter{};
  for (;;) {
    std::pop_heap(br.begin(), end, later);
    --end;
    enter = *end;
    // Bland mode flips nothing: the first breakpoint enters, so the
    // anti-cycling rule sees a textbook dual ratio test and terminates.
    if (bland || end == br.begin()) break;
    const double u = ub_[enter.j];
    if (!std::isfinite(u) || slope - enter.abs_a * u <= 0) break;
    slope -= enter.abs_a * u;
    ws_.flips.push_back(enter.j);
  }
  // Among breakpoints tied with the stopping one, the largest |pivot| (Bland
  // mode: the smallest index) enters; the others keep a ~zero reduced cost
  // and stay put.
  while (end != br.begin() && br.front().t <= enter.t + 1e-12) {
    std::pop_heap(br.begin(), end, later);
    --end;
    const Breakpoint& c = *end;
    if (bland ? c.j < enter.j : c.abs_a > enter.abs_a) enter = c;
  }
  *step = enter.t;
  return enter.j;
}

void RevisedCore::update_dual_edge_weights(int r) {
  const double* alpha = ws_.alpha.data();
  const double* rho = ws_.rho.data();
  const double* tau = ws_.tau.data();
  double wr = 0;  // exact: rho is row r of the pre-pivot B^-1
  for (int i = 0; i < m_; ++i) wr += rho[i] * rho[i];
  const double inv_piv = 1.0 / alpha[r];
  // New row i is rho_i - kappa_i rho_r with kappa_i = alpha_i / alpha_r, so
  // w_i' = w_i - 2 kappa_i tau_i + kappa_i^2 w_r. Both sides of that
  // difference are about w_i + kappa_i^2 w_r; on big-M rows it often
  // cancels to a small fraction of them (about once per pivot on window
  // LPs), and then the row is recomputed exactly from the updated
  // factorization.
  double* w = dse_w_.data();
  for (int i = 0; i < m_; ++i) {
    if (i == r || alpha[i] == 0.0) continue;
    const double kappa = alpha[i] * inv_piv;
    const double scale = w[i] + kappa * kappa * wr;
    const double wi = w[i] + kappa * (kappa * wr - 2.0 * tau[i]);
    w[i] = wi >= kCancelFrac * scale ? wi : exact_row_norm2(i, ws_.d.data());
  }
  w[r] = wr * inv_piv * inv_piv;
}

/// Bounded-variable dual simplex over the factorized basis. Requires a
/// dual-feasible basis; repairs primal bound violations of basic variables
/// one leaving row at a time, chosen by dual steepest edge, with a
/// bound-flipping ratio test. A pivot costs one BTRAN, two FTRANs (entering
/// column; B^-1 rho for the weights), a third when it flips bounds, and a
/// sparse row gather. An infeasibility verdict is certified by an O(nnz)
/// residual check instead of a refactorization.
Status RevisedCore::dual_iterate() {
  int stall = 0;
  bool bland = false;
  bool fresh = false;
  while (iterations_ < opts_.max_iterations) {
    if (out_of_time()) return Status::kIterLimit;
    if (factor_.updates() >= refactor_interval_) {
      if (!refresh()) return Status::kIterLimit;
    }
    bool above = false;
    const int r = choose_leaving_row(bland, &above);
    if (r < 0) return Status::kOptimal;
    const double target = above ? ub_[basis_[r]] : 0.0;

    gather_pivot_row(r);
    double step = 0;
    const int q = dual_ratio_test(above, std::abs(beta_[r] - target), bland,
                                  &step);
    if (q < 0) {
      // No column can absorb the violation: primal infeasible — if the
      // numbers are real. Certify against the original matrix (O(nnz));
      // only a failed check costs a refactorization.
      if (residual_ok()) return Status::kInfeasible;
      if (fresh) return Status::kIterLimit;
      if (!refresh()) return Status::kIterLimit;
      fresh = true;
      continue;
    }

    ++iterations_;
    ++dual_iterations_;
    if (step <= 1e-11) {
      ++stall;
      if (stall > 2 * (m_ + ncols_)) bland = true;
    } else {
      stall = 0;
    }

    ftran_column(q);
    const double arq = ws_.alpha[r];
    const bool drifted =
        std::abs(rowval(q) - arq) >
            kConsistencyTol * std::max(1.0, std::abs(arq)) ||
        std::abs(arq) < opts_.pivot_tol;
    if (drifted) {
      if (fresh) return Status::kIterLimit;
      if (!refresh()) return Status::kIterLimit;
      fresh = true;
      continue;
    }

    // Everything below reads the pre-pivot basis: tau = B^-1 rho for the
    // weight update, and the primal effect of the flips, B^-1 sum_j a_j dx_j
    // (dx_j = +u_j from lower, -u_j from upper), in one FTRAN.
    std::copy(ws_.rho.begin(), ws_.rho.begin() + m_, ws_.tau.begin());
    factor_.ftran(ws_.tau.data());
    double* dflip = ws_.flip_delta.data();
    const bool flipping = !ws_.flips.empty();
    if (flipping) {
      std::fill(dflip, dflip + m_, 0.0);
      for (int j : ws_.flips) {  // artificials never price, so never flip
        const double dx = dir_[j] * ub_[j];
        if (j >= n_struct_) {
          dflip[j - n_struct_] += dx;
          continue;
        }
        for (int e = A_->col_ptr[j]; e < A_->col_ptr[j + 1]; ++e) {
          dflip[A_->row_idx[e]] += A_->val[e] * dx;
        }
      }
      factor_.ftran(dflip);
    }

    const double dq = dir_[q];  // +1 entering from lower, -1 from upper
    const double beta_r = beta_[r] - (flipping ? dflip[r] : 0.0);
    double t = (beta_r - target) / (dq * arq);
    if (t < 0) t = 0;
    const double enter_val = (dq > 0) ? t : ub_[q] - t;
    if (!apply_pivot(r, q, above ? -1 : 1, enter_val, /*use_devex=*/false)) {
      if (fresh) return Status::kIterLimit;
      if (!refresh()) return Status::kIterLimit;
      fresh = true;
      continue;
    }
    const double* alpha = ws_.alpha.data();
    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      beta_[i] -= dq * alpha[i] * t + (flipping ? dflip[i] : 0.0);
    }
    for (int j : ws_.flips) {
      set_state(j, state_[j] == VarState::kAtLower ? VarState::kAtUpper
                                                   : VarState::kAtLower);
    }
    bound_flips_ += static_cast<int>(ws_.flips.size());
    update_dual_edge_weights(r);
    fresh = false;
  }
  return Status::kIterLimit;
}

std::vector<double> RevisedCore::recover_x() const {
  std::vector<double> x(n_struct_);
  for (int v = 0; v < n_struct_; ++v) {
    x[v] = shift_[v] +
           (state_[v] == VarState::kAtUpper ? ub_[v] : 0.0);
  }
  for (int i = 0; i < m_; ++i) {
    const int j = basis_[i];
    if (j < n_struct_) x[j] = shift_[j] + beta_[i];
  }
  return x;
}

/// Fills x/objective/reduced costs of an optimal result.
void RevisedCore::export_optimal(const Problem& p, Result* res) const {
  res->x = recover_x();
  res->objective = p.objective_value(res->x);
  res->reduced_cost.assign(zrow_.begin(), zrow_.begin() + n_struct_);
}

bool RevisedCore::out_of_time() {
  if (opts_.time_limit_sec <= 0 || (iterations_ & 127) != 0 ||
      timer_.seconds() <= opts_.time_limit_sec) {
    return false;
  }
  timed_out_ = true;
  return true;
}

Result RevisedCore::run_cold(const Problem& p) {
  Result res;
  iterations_ = 0;
  dual_iterations_ = 0;
  bound_flips_ = 0;
  timed_out_ = false;
  timer_.reset();

  shift_.resize(n_struct_);
  for (int v = 0; v < n_struct_; ++v) shift_[v] = p.lower_bound(v);

  // Slack-basis residuals decide which rows need an artificial.
  ws_.ensure(m_, n_struct_ + m_);
  compute_bprime(ws_.d.data());
  art_row_.clear();
  art_sign_.clear();
  std::vector<double>& bprime = ws_.d;
  for (int i = 0; i < m_; ++i) {
    const double su = (p.constraint(i).sense == Sense::kEq) ? 0.0 : kInf;
    const double v = bprime[i];
    const double clamped = std::min(std::max(v, 0.0), su);
    if (std::abs(v - clamped) > opts_.tol) {
      art_row_.push_back(i);
      art_sign_.push_back(v - clamped < 0 ? -1.0 : 1.0);
    }
  }
  need_phase1_ = !art_row_.empty();
  size_for(static_cast<int>(art_row_.size()));

  for (int v = 0; v < n_struct_; ++v) {
    const double hi = p.upper_bound(v);
    ub_[v] = std::isfinite(hi) ? hi - shift_[v] : kInf;
    cost2_[v] = p.cost(v);
  }
  std::size_t next_art = 0;
  for (int i = 0; i < m_; ++i) {
    const int js = n_struct_ + i;
    ub_[js] = (p.constraint(i).sense == Sense::kEq) ? 0.0 : kInf;
    if (next_art < art_row_.size() && art_row_[next_art] == i) {
      const int ja = n_art_begin_ + static_cast<int>(next_art);
      ++next_art;
      basis_[i] = ja;
      set_state(ja, VarState::kBasic);
      set_state(js, VarState::kAtLower);
    } else {
      basis_[i] = js;
      set_state(js, VarState::kBasic);
    }
  }

  if (need_phase1_) {
    cost_.assign(ncols_, 0.0);
    for (int j = n_art_begin_; j < ncols_; ++j) cost_[j] = 1.0;
  } else {
    cost_ = cost2_;
  }
  // The starting basis is diagonal (slack +1 / artificial +-1 per row), so
  // it is loaded directly in O(m) — no elimination, and deliberately not
  // counted as a refactorization.
  {
    double* diag = ws_.y.data();
    for (int i = 0; i < m_; ++i) diag[i] = 1.0;
    for (std::size_t k = 0; k < art_row_.size(); ++k) {
      diag[art_row_[k]] = art_sign_[k];
    }
    factor_.reset_diagonal(diag, m_, dense_inv_);
    recompute_beta();
    // Rows of a diagonal +-1 inverse: every dual steepest-edge weight is 1.
    dse_w_.assign(m_, 1.0);
    dse_valid_ = true;
  }

  if (need_phase1_) {
    Status s = iterate(/*phase1=*/true);
    if (s == Status::kIterLimit) {
      res.status = s;
      res.iterations = iterations_;
      return res;
    }
    double infeas = 0;
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] >= n_art_begin_) infeas += beta_[i];
    }
    if (s == Status::kInfeasible || infeas > 1e-6) {
      res.status = Status::kInfeasible;
      res.iterations = iterations_;
      return res;
    }
    // Pin artificials to zero so they cannot re-enter (dir 0 also removes
    // them from pricing; a still-basic artificial keeps its zero value).
    for (int j = n_art_begin_; j < ncols_; ++j) {
      ub_[j] = 0.0;
      if (state_[j] != VarState::kBasic) {
        state_[j] = VarState::kAtLower;
        dir_[j] = 0.0;
      }
    }
  }

  cost_ = cost2_;
  Status s = iterate(/*phase1=*/false);
  res.status = s;
  res.iterations = iterations_;
  if (s != Status::kOptimal) return res;

  export_optimal(p, &res);
  return res;
}

Result RevisedCore::reoptimize_dual(const Problem& p) {
  Result res;
  iterations_ = 0;
  dual_iterations_ = 0;
  bound_flips_ = 0;
  timed_out_ = false;
  timer_.reset();
  res.warm_start_used = true;
  cost_ = cost2_;
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (attempt > 0 || !factor_.factorized()) {
      if (!refresh()) {
        res.status = Status::kIterLimit;
        return res;
      }
    } else {
      // Self-correcting warm entry: beta is recomputed from the current
      // bounds with one FTRAN (so set_bounds cost nothing), and the reduced
      // costs with one BTRAN + sparse dots, wiping incremental drift from
      // the previous solve without touching the factorization.
      recompute_beta();
      recompute_zrow();
    }
    // The weights survive bound changes (the basis is untouched); only a
    // cold solve's primal pivots leave them stale.
    if (!dse_valid_) {
      dse_w_ = exact_dual_edge_weights();
      dse_valid_ = true;
    }
    Status s = dual_iterate();
    res.status = s;
    res.iterations = iterations_;
    res.dual_iterations = dual_iterations_;
    res.bound_flips = bound_flips_;
    if (s == Status::kIterLimit) return res;
    if (s == Status::kInfeasible) return res;  // residual-certified inside
    export_optimal(p, &res);
    if (p.max_violation(res.x) <= 1e-6) return res;
    res.x.clear();
    res.reduced_cost.clear();
  }
  // Persistent violation even after refactorizing: cold restart.
  res.status = Status::kIterLimit;
  return res;
}

bool RevisedCore::set_bounds_incremental(int v, double lo, double hi) {
  assert(v >= 0 && v < n_struct_);
  // Beta is recomputed wholesale at the next solve, so only the normalized
  // bound bookkeeping changes here. A variable resting at an upper bound
  // that became infinite has no value to rest at — force a cold restart.
  if (state_[v] == VarState::kAtUpper && !std::isfinite(hi)) return false;
  shift_[v] = lo;
  ub_[v] = std::isfinite(hi) ? hi - lo : kInf;
  return true;
}

}  // namespace vm1::lp::detail
