/// \file revised.h
/// Revised simplex engine: the only LP engine in the library.
///
/// Instead of an explicit m x ncols tableau (rewritten in full on every
/// pivot, as the dense test oracle under tests/lp_oracle does), this engine
/// keeps only:
///  * the shared sparse constraint columns (Problem::columns(), CSC + CSR),
///  * a product-form factorization of the current basis (EtaFactor):
///    Markowitz-ordered sparse Gauss-Jordan etas plus one rank-1 update eta
///    per pivot,
///  * the dense m-vector of basic values (beta_) and the ncols-vector of
///    reduced costs (zrow_), both updated incrementally per pivot.
///
/// A pivot therefore costs FTRAN + BTRAN + one sparse row gather — O(nnz of
/// the eta file + nnz of the pivot row) — instead of O(m * ncols). The eta
/// file grows by one eta per pivot and is reset by a refactorization, which
/// runs only when the file passes the scheduled interval or a per-pivot
/// consistency check detects drift; verdicts are validated by O(nnz)
/// residual checks against the original matrix instead of by refactorizing,
/// which is what cuts lp.refactorizations by orders of magnitude versus a
/// refactor-to-certify policy.
///
/// Bases with at most Options::dense_inverse_dim rows additionally collapse
/// the factorization into an explicit dense B^-1 (EtaFactor::collapse):
/// pivots become contiguous rank-1 updates and FTRAN/BTRAN dense column
/// passes, so per-pivot cost no longer depends on how many pivots separate
/// refactorizations and the refactor interval stretches to a numerical
/// hygiene backstop. The cold start loads the diagonal slack/artificial
/// basis directly in O(m) without counting a refactorization at all.
///
/// Warm re-solves recompute beta (one FTRAN of the bound-adjusted rhs) and
/// the reduced costs (one BTRAN + sparse dot per column) from scratch at
/// entry, so bound changes between solves are free and numeric drift cannot
/// accumulate across a branch-and-bound dive.
///
/// The dual simplex prices leaving rows by dual steepest edge (Forrest &
/// Goldfarb 1992): row i scores infeasibility_i^2 / w_i with
/// w_i = ||e_i^T B^-1||^2, kept exact by one extra FTRAN per dual pivot. Its
/// ratio test flips bounds (Fourer 1994): boxed columns whose breakpoints
/// the dual step passes while the dual slope stays positive move to their
/// opposite bound instead of each costing a pivot.
#pragma once

#include <vector>

#include "lp/factor.h"
#include "lp/pricing.h"
#include "lp/simplex.h"
#include "util/logging.h"

namespace vm1::lp::detail {

/// Per-solve scratch, allocated once and reused for every solve a
/// RevisedCore performs (IncrementalSimplex keeps one core hot across an
/// entire branch-and-bound dive, so repeated solves never touch the
/// allocator). All vectors are sized by ensure() at solve entry.
struct SolveWorkspace {
  std::vector<double> alpha;    ///< FTRANed entering column (m)
  std::vector<double> rho;      ///< BTRANed pivot-row unit vector (m)
  std::vector<double> rowvals;  ///< gathered pivot tableau row (ncols)
  std::vector<int> support;     ///< nonzero columns of rowvals
  std::vector<int> col_stamp;   ///< rowvals validity stamps (ncols)
  std::vector<double> d;        ///< rhs / residual workspace (m)
  std::vector<double> y;        ///< dual prices workspace (m)
  std::vector<double> tau;      ///< B^-1 rho (steepest-edge update) (m)
  std::vector<double> flip_delta;  ///< B^-1 sum of flipped moves (m)
  std::vector<int> relabel;     ///< basis relabeling scratch (m)
  BasisColumns cols;            ///< basis assembly for refactorization
  /// Dual ratio test: one breakpoint per eligible column of the pivot row.
  struct Breakpoint {
    double t;      ///< dual step at which the column's reduced cost hits 0
    double abs_a;  ///< |pivot row entry|
    int j;
  };
  std::vector<Breakpoint> breaks;
  std::vector<int> flips;  ///< columns the current dual pivot flips
  int stamp_gen = 0;

  void ensure(int m, int ncols);
};

/// The engine proper: one instance per SimplexSolver::solve call, or one
/// long-lived instance inside IncrementalSimplex (the only warm path). The
/// Problem passed to the constructor must outlive the core and must not
/// gain variables or constraints afterwards (bound changes are fine).
class RevisedCore {
 public:
  RevisedCore(const Problem& p, const SimplexSolver::Options& opts);

  /// Cold path: slack/artificial start, phase 1 if needed, primal phase 2.
  Result run_cold(const Problem& p);

  /// Incremental interface: records the new bounds; beta is recomputed from
  /// scratch (one FTRAN) at the next reoptimize_dual, so this is O(1).
  /// Returns false when the basis cannot absorb the change (variable
  /// resting at an upper bound that became infinite).
  bool set_bounds_incremental(int v, double lo, double hi);

  /// Re-optimizes the hot basis with the dual simplex. Returns kOptimal
  /// or kInfeasible (both trustworthy), or kIterLimit when the caller
  /// should cold restart (stall, drifted solution, singular basis).
  Result reoptimize_dual(const Problem& p);

  /// Dual steepest-edge weights w_i ~ ||e_i^T B^-1||^2, indexed by row, as
  /// maintained across dual pivots. Valid after a reoptimize_dual.
  const std::vector<double>& dual_edge_weights() const { return dse_w_; }
  /// The same norms computed exactly from the current factorization (one
  /// BTRAN per row): how the weights start after a cold solve that
  /// pivoted, and the reference the tests hold the maintained ones to.
  std::vector<double> exact_dual_edge_weights();

  /// True when the last run_cold / reoptimize_dual stopped on the
  /// Options::time_limit_sec wall clock.
  bool timed_out() const { return timed_out_; }

 private:
  /// Polls the wall clock every 128 iterations; true (and timed_out_ set)
  /// once the solve is over its time limit.
  bool out_of_time();
  enum class VarState : unsigned char { kBasic, kAtLower, kAtUpper };

  void size_for(int nart);
  void set_state(int j, VarState s);
  /// Scatters normalized column j (structural / slack / artificial) into
  /// dense x of length m (zero-filled first).
  void load_column(int j, double* x) const;
  /// ws_.alpha := B^-1 A_j.
  void ftran_column(int j);
  /// Gathers tableau pivot row r into ws_.rowvals / ws_.support via
  /// rho = B^-T e_r and the CSR rows of its support.
  void gather_pivot_row(int r);
  double rowval(int j) const {
    return ws_.col_stamp[j] == ws_.stamp_gen ? ws_.rowvals[j] : 0.0;
  }

  /// Refactorizes the current basis (assemble columns, Markowitz factorize,
  /// relabel slots to pivot rows). False on a singular basis.
  bool refactorize();
  /// refactorize() + recompute beta and zrow. False on a singular basis.
  bool refresh();
  /// ws_.d := b' = rhs_norm - A * shift (normalized rhs at current shifts).
  void compute_bprime(double* d) const;
  /// beta := B^-1 (b' - sum_{j at upper} A_j ub_j), row-indexed.
  void recompute_beta();
  /// zrow := c - c_B' B^-1 A under the current cost_ row (exact zeros on
  /// basic columns).
  void recompute_zrow();
  /// O(nnz) check that the current basic solution satisfies A x' = b'
  /// against the *original* matrix — validates infeasible verdicts without
  /// refactorizing.
  bool residual_ok();

  int choose_entering(bool bland) const;
  /// ||e_i^T B^-1||^2 by one BTRAN through `scratch` (m); a unit BTRAN
  /// through the explicit inverse is an O(m) strided gather.
  double exact_row_norm2(int i, double* scratch) const;
  /// Dual leaving row: largest infeasibility^2 / w_i (Bland mode: smallest
  /// basic column index). Sets *above when the row exceeds its upper bound.
  /// -1 when the basis is primal feasible.
  int choose_leaving_row(bool bland, bool* above) const;
  /// Bound-flipping dual ratio test over the gathered pivot row of a row
  /// with primal infeasibility `infeas` (> 0). Returns the entering column
  /// (-1: no eligible column) and its dual step in *step; fills ws_.flips
  /// with the boxed columns whose breakpoints the step passes. Bland mode
  /// flips nothing: the first breakpoint enters, ties to the smallest index.
  int dual_ratio_test(bool above, double infeas, bool bland, double* step);
  /// Forrest-Goldfarb weight update for the pivot just applied at row r;
  /// reads the pre-pivot alpha, rho and tau = B^-1 rho from the workspace.
  void update_dual_edge_weights(int r);
  /// Shared pivot bookkeeping once (r, q) is fixed and ws_.alpha /
  /// ws_.rowvals are loaded: eta append, incremental zrow update, state and
  /// basis flips. beta is updated by the caller (primal and dual move it
  /// differently). Returns false when the eta pivot is numerically unusable.
  bool apply_pivot(int r, int q, int leave_dir, double enter_val,
                   bool use_devex);

  // Runs primal simplex iterations on the current cost row.
  Status iterate(bool phase1);
  Status dual_iterate();
  std::vector<double> recover_x() const;
  void export_optimal(const Problem& p, Result* res) const;

  SimplexSolver::Options opts_;
  const ColumnMatrix* A_;  ///< shared sparse columns (owned by the Problem)
  int n_struct_;
  int m_;
  int ncols_ = 0;
  int n_art_begin_ = 0;
  int refactor_interval_ = 0;
  bool dense_inv_ = false;  ///< collapse factorizations to explicit B^-1

  std::vector<double> beta_;   ///< basic values, indexed by row
  std::vector<double> ub_;     ///< normalized upper bounds (lower = 0)
  std::vector<double> cost_;   ///< current objective (phase 1 or 2)
  std::vector<double> cost2_;  ///< phase-2 objective
  std::vector<double> zrow_;   ///< reduced costs
  std::vector<double> dir_;    ///< +1 at lower, -1 at upper, 0 basic/pinned
  std::vector<int> basis_;     ///< basis_[row] = column index
  std::vector<VarState> state_;
  std::vector<double> shift_;  ///< lower bounds of structural vars
  std::vector<int> art_row_;   ///< row of artificial column n_art_begin_+k
  std::vector<double> art_sign_;  ///< its unit coefficient (+1 / -1)

  EtaFactor factor_;
  DevexPricing devex_;
  SolveWorkspace ws_;
  Timer timer_;  ///< solve wall clock, reset when iterations_ resets
  std::vector<double> dse_w_;  ///< dual steepest-edge weights, by row
  bool dse_valid_ = false;     ///< false once a primal pivot moved the basis
  int iterations_ = 0;
  int dual_iterations_ = 0;
  int bound_flips_ = 0;
  bool need_phase1_ = false;
  bool timed_out_ = false;
};

}  // namespace vm1::lp::detail
