/// \file dense_tableau.h
/// Dense-tableau simplex: the test-only LP oracle.
///
/// It maintains the full m x ncols tableau B^-1 A explicitly and rewrites
/// it on every pivot, which is O(m * ncols) per iteration — asymptotically
/// the wrong trade for the sparse window LPs, but a completely independent
/// implementation of the same bounded-variable two-phase primal simplex. It lives in the
/// openvm1_lp_oracle test library, not in openvm1: the differential tests
/// in tests/test_simplex.cpp solve the same instances cold here and through
/// the library (SimplexSolver and IncrementalSimplex) and require identical
/// statuses and matching objectives.
#pragma once

#include <vector>

#include "lp/simplex.h"
#include "util/logging.h"

namespace vm1::lp::oracle {

/// Internal dense tableau state for the bounded-variable simplex.
///
/// The problem is normalized to `A x = b, 0 <= x <= u` (variables shifted by
/// their lower bounds, >= rows negated, one slack per row, artificials added
/// for rows whose slack-basis start is infeasible).
class DenseTableau {
 public:
  DenseTableau(const Problem& p, const SimplexSolver::Options& opts)
      : opts_(opts), n_struct_(p.num_variables()), m_(p.num_constraints()) {}

  /// Cold solve: slack/artificial start, phase 1 if needed, primal phase 2.
  /// Only tol, pivot_tol, max_iterations and time_limit_sec are read from
  /// the options; pricing is always Dantzig with a Bland stall fallback.
  Result run_cold(const Problem& p) {
    build(p);
    return run(p);
  }

 private:
  enum class VarState : unsigned char { kBasic, kAtLower, kAtUpper };

  double& tab(int i, int j) {
    return tab_[static_cast<std::size_t>(i) * ncols_ + j];
  }

  void build(const Problem& p);
  Result run(const Problem& p);
  // Runs simplex iterations on the current cost row. Returns status.
  Status iterate(bool phase1);
  void compute_zrow();
  int choose_entering(bool bland) const;
  void pivot(int row, int col);
  std::vector<double> recover_x() const;
  void export_optimal(const Problem& p, Result* res) const;

  SimplexSolver::Options opts_;
  int n_struct_;  ///< structural variable count
  int m_;         ///< constraint count
  int ncols_ = 0;
  int n_art_begin_ = 0;  ///< first artificial column
  std::vector<double> tab_;   ///< m x ncols, equals B^-1 A
  std::vector<double> beta_;  ///< basic variable values
  std::vector<double> ub_;    ///< upper bounds of normalized vars (lower = 0)
  std::vector<double> cost_;  ///< current objective (phase 1 or 2)
  std::vector<double> cost2_; ///< phase-2 objective
  std::vector<double> zrow_;  ///< reduced costs
  std::vector<int> basis_;    ///< basis_[row] = column index
  std::vector<VarState> state_;
  std::vector<double> shift_;  ///< lower bounds of structural vars
  std::vector<int> piv_cols_;  ///< scratch: nonzero pivot-row columns
  Timer timer_;  ///< solve wall clock, reset when iterations_ resets
  int iterations_ = 0;
  bool need_phase1_ = false;
#ifdef VM1_LP_DEBUG
  std::vector<double> a0_, b0_;  ///< normalized system copy for checks
  void check_system(const char* tag);
#endif
};

}  // namespace vm1::lp::oracle
