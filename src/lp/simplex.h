/// \file simplex.h
/// Bounded-variable simplex LP solver (primal two-phase + dual).
///
/// This is the LP engine underneath the branch-and-bound MILP solver
/// (src/milp) that OpenVM1 uses in place of the paper's CPLEX 12.6.3: a
/// revised simplex over a product-form basis factorization — Markowitz-
/// ordered sparse LU of the basis, rank-1 eta updates per pivot, Devex
/// pricing, shared CSC/CSR constraint columns (see revised.h and DESIGN.md
/// "LP/MILP solver internals"). A pivot costs O(nnz) instead of rewriting a
/// whole tableau, which is what makes a warm basis nearly free. An
/// independent dense-tableau implementation lives under tests/lp_oracle as
/// the differential-testing oracle; it is not part of this library.
///
/// Two solve paths:
///  * cold: two-phase primal from the slack basis (SimplexSolver::solve);
///  * warm: dual simplex re-optimization after bound changes, keeping the
///    factorization hot across the sequence (IncrementalSimplex), which is
///    how branch-and-bound dives without re-running phase 1 per node.
///
/// Conventions:
///  * minimization;
///  * every variable has a finite lower bound; upper bounds may be
///    +infinity (vm1::lp::kInf);
///  * constraints are `sum a_j x_j  (<= | >= | ==)  rhs`.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lp/sparse.h"

namespace vm1::lp {

/// Infinity marker for variable upper bounds.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { kLe, kGe, kEq };

enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
};

const char* to_string(Status s);

/// One linear constraint: terms (var index, coefficient), sense, rhs.
struct Constraint {
  std::vector<std::pair<int, double>> terms;
  Sense sense = Sense::kLe;
  double rhs = 0;
};

/// An LP in natural (row) form. Build with add_variable/add_constraint,
/// then hand to SimplexSolver::solve.
class Problem {
 public:
  /// Adds a variable with bounds [lo, hi] and objective coefficient `cost`.
  /// Requires lo finite and lo <= hi. Returns the variable index.
  int add_variable(double lo, double hi, double cost, std::string name = "");

  /// Adds a constraint. Term variable indices must be valid. Duplicate
  /// indices within one constraint are allowed (coefficients accumulate).
  void add_constraint(std::vector<std::pair<int, double>> terms, Sense sense,
                      double rhs);

  int num_variables() const { return static_cast<int>(lo_.size()); }
  int num_constraints() const { return static_cast<int>(rows_.size()); }

  double lower_bound(int v) const { return lo_[v]; }
  double upper_bound(int v) const { return hi_[v]; }
  double cost(int v) const { return cost_[v]; }
  const std::string& name(int v) const { return names_[v]; }
  const Constraint& constraint(int i) const { return rows_[i]; }

  /// Overwrites a variable's bounds (used by branch-and-bound to fix
  /// binaries). Requires lo <= hi.
  void set_bounds(int v, double lo, double hi);

  /// Evaluates the objective at x.
  double objective_value(const std::vector<double>& x) const;

  /// Returns the largest violation of any constraint or bound at x
  /// (0 when feasible).
  double max_violation(const std::vector<double>& x) const;

  /// Shared sparse (CSC + CSR) view of the constraint matrix, built lazily
  /// on first use and cached for the lifetime of this Problem's structure
  /// (add_variable/add_constraint invalidate it; set_bounds does not).
  /// Copies share the cache. The first call is not thread-safe with respect
  /// to concurrent solves of the same Problem object.
  const detail::ColumnMatrix& columns() const;

 private:
  std::vector<double> lo_, hi_, cost_;
  std::vector<std::string> names_;
  std::vector<Constraint> rows_;
  mutable std::shared_ptr<const detail::ColumnMatrix> cols_cache_;
};

struct Result {
  Status status = Status::kInfeasible;
  double objective = 0;
  std::vector<double> x;  ///< variable values (size = num_variables)
  int iterations = 0;       ///< total simplex pivots (primal + dual)
  int dual_iterations = 0;  ///< pivots spent in the dual simplex
  /// Nonbasic columns moved to their opposite bound by the dual ratio test.
  int bound_flips = 0;
  /// True when the solve re-optimized from a warm basis without phase 1.
  bool warm_start_used = false;
  /// True when some phase of the solve stopped on its wall-clock budget
  /// (Options::time_limit_sec); the status is then kIterLimit or, after a
  /// cold restart, whatever the restart reached.
  bool time_limit_hit = false;
  /// Reduced costs of the structural variables at the optimum (empty when
  /// not optimal). Nonnegative for variables at lower bound, nonpositive
  /// at upper bound — used for reduced-cost fixing in branch-and-bound.
  std::vector<double> reduced_cost;
};

/// Entering-variable rule (the dense test oracle always prices
/// Dantzig-style).
enum class Pricing : unsigned char {
  kDevex,    ///< reference-framework steepest-edge approximation (default)
  kDantzig,  ///< largest reduced cost; for differential tests
};

namespace detail {
class RevisedCore;
}  // namespace detail

/// Two-phase simplex with bounded variables.
class SimplexSolver {
 public:
  struct Options {
    int max_iterations = 200000;
    /// Wall-clock budget; <= 0 means unlimited. Exceeding it returns
    /// kIterLimit (callers treat it as truncation).
    double time_limit_sec = 0;
    double tol = 1e-7;        ///< feasibility / optimality tolerance
    double pivot_tol = 1e-9;  ///< minimum |pivot| accepted
    // pricing, refactor_interval and dense_inverse_dim are test-only seams:
    // no production caller sets them, so the window signature does not
    // hash them and the wire does not ship them (workers run the defaults).
    Pricing pricing = Pricing::kDevex;
    /// Update etas tolerated before a scheduled refactorization. 0 means
    /// automatic (scales with the row count in eta-file mode; an order of
    /// magnitude longer in explicit-inverse mode, where walks don't grow
    /// with the update count). Consistency failures always force an
    /// immediate refactorization regardless of this interval.
    int refactor_interval = 0;
    /// Bases with at most this many rows collapse the factorization into an
    /// explicit dense B^-1 updated in place per pivot (contiguous rank-1
    /// outer products; no eta chain to walk). Larger bases keep the sparse
    /// eta file. 0 forces eta-file mode everywhere (used by the
    /// differential tests).
    int dense_inverse_dim = 256;
  };

  SimplexSolver() : opts_() {}
  explicit SimplexSolver(const Options& opts) : opts_(opts) {}

  /// Cold solve: two-phase primal from the slack basis.
  Result solve(const Problem& p) const;

 private:
  Options opts_;
};

/// Re-optimizing solver that owns a mutable copy of one Problem and keeps
/// the basis factorization hot across a sequence of bound changes — the
/// only warm-start path. This is the branch-and-bound workhorse: a child
/// node differs from its parent by one integer-variable bound, so
/// `set_bounds` + `solve` costs a handful of dual pivots instead of a full
/// phase-1 + phase-2 rebuild. All per-solve scratch lives in a reusable
/// SolveWorkspace inside the engine core, so repeated solves do not touch
/// the allocator.
class IncrementalSimplex {
 public:
  IncrementalSimplex(const Problem& p, const SimplexSolver::Options& opts);
  ~IncrementalSimplex();

  IncrementalSimplex(const IncrementalSimplex&) = delete;
  IncrementalSimplex& operator=(const IncrementalSimplex&) = delete;

  /// The owned problem at its current bounds.
  const Problem& problem() const { return prob_; }

  /// Overwrites variable v's bounds (original, unshifted space). When the
  /// basis is hot this is O(1) bookkeeping that preserves it; otherwise it
  /// only records the new bounds.
  void set_bounds(int v, double lo, double hi);

  /// Re-optimizes at the current bounds: dual simplex from the previous
  /// optimal basis when it is hot, full two-phase primal otherwise. A dual
  /// stall or a drifted solution triggers an automatic cold restart, so
  /// results match a fresh solve.
  Result solve();

  /// Discards the hot basis; the next solve is a cold start.
  void invalidate();

  // Observability counters (accumulated across solve() calls).
  int warm_solves() const { return warm_solves_; }    ///< phase-1 solves avoided
  int cold_solves() const { return cold_solves_; }    ///< full rebuilds
  int dual_pivots() const { return dual_pivots_; }

 private:
  Problem prob_;
  std::unique_ptr<detail::RevisedCore> core_;
  bool hot_ = false;
  int warm_solves_ = 0;
  int cold_solves_ = 0;
  int dual_pivots_ = 0;
};

}  // namespace vm1::lp
