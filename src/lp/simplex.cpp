#include "lp/simplex.h"

#include <cassert>
#include <cmath>

#include "lp/revised.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vm1::lp {

namespace {

/// Per-solve totals are bulk-added at the solve entry points; only the
/// (rare) basis refactorization counts from inside the core.
void record_solve(const Result& r, bool warm) {
  static obs::Counter& solves = obs::counter("lp.solves");
  static obs::Counter& pivots = obs::counter("lp.pivots");
  static obs::Counter& dual_pivots = obs::counter("lp.dual_pivots");
  static obs::Counter& warm_solves = obs::counter("lp.warm_solves");
  static obs::Counter& bound_flips = obs::counter("lp.bound_flips");
  static obs::Counter& time_limit_hits = obs::counter("lp.time_limit_hits");
  solves.add();
  pivots.add(r.iterations);
  dual_pivots.add(r.dual_iterations);
  bound_flips.add(r.bound_flips);
  if (warm) warm_solves.add();
  if (r.time_limit_hit) time_limit_hits.add();
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kOptimal:
      return "optimal";
    case Status::kInfeasible:
      return "infeasible";
    case Status::kUnbounded:
      return "unbounded";
    case Status::kIterLimit:
      return "iteration-limit";
  }
  return "?";
}

int Problem::add_variable(double lo, double hi, double cost,
                          std::string name) {
  assert(std::isfinite(lo));
  assert(lo <= hi);
  cols_cache_.reset();  // structure changed
  lo_.push_back(lo);
  hi_.push_back(hi);
  cost_.push_back(cost);
  names_.push_back(std::move(name));
  return static_cast<int>(lo_.size()) - 1;
}

void Problem::add_constraint(std::vector<std::pair<int, double>> terms,
                             Sense sense, double rhs) {
  for ([[maybe_unused]] const auto& [v, a] : terms) {
    assert(v >= 0 && v < num_variables());
  }
  cols_cache_.reset();  // structure changed
  rows_.push_back(Constraint{std::move(terms), sense, rhs});
}

void Problem::set_bounds(int v, double lo, double hi) {
  assert(lo <= hi);
  lo_[v] = lo;
  hi_[v] = hi;
}

double Problem::objective_value(const std::vector<double>& x) const {
  double z = 0;
  for (int v = 0; v < num_variables(); ++v) z += cost_[v] * x[v];
  return z;
}

double Problem::max_violation(const std::vector<double>& x) const {
  double worst = 0;
  for (int v = 0; v < num_variables(); ++v) {
    worst = std::max(worst, lo_[v] - x[v]);
    if (std::isfinite(hi_[v])) worst = std::max(worst, x[v] - hi_[v]);
  }
  for (const auto& row : rows_) {
    double lhs = 0;
    for (const auto& [v, a] : row.terms) lhs += a * x[v];
    switch (row.sense) {
      case Sense::kLe:
        worst = std::max(worst, lhs - row.rhs);
        break;
      case Sense::kGe:
        worst = std::max(worst, row.rhs - lhs);
        break;
      case Sense::kEq:
        worst = std::max(worst, std::abs(lhs - row.rhs));
        break;
    }
  }
  return worst;
}

const detail::ColumnMatrix& Problem::columns() const {
  if (!cols_cache_) {
    cols_cache_ = std::make_shared<const detail::ColumnMatrix>(
        detail::ColumnMatrix::build(*this));
  }
  return *cols_cache_;
}

namespace detail {

ColumnMatrix ColumnMatrix::build(const Problem& p) {
  ColumnMatrix a;
  a.rows = p.num_constraints();
  a.cols = p.num_variables();
  a.row_ptr.assign(a.rows + 1, 0);
  a.rhs_norm.resize(a.rows);

  // CSR first: walk the constraints, accumulating duplicate term indices
  // and folding the Ge sign into coefficients and rhs.
  std::vector<double> acc(a.cols, 0.0);
  std::vector<int> stamp(a.cols, -1);
  std::vector<int> touched;
  for (int i = 0; i < a.rows; ++i) {
    const Constraint& row = p.constraint(i);
    const double s = (row.sense == Sense::kGe) ? -1.0 : 1.0;
    a.rhs_norm[i] = s * row.rhs;
    touched.clear();
    for (const auto& [v, c] : row.terms) {
      if (stamp[v] != i) {
        stamp[v] = i;
        acc[v] = 0.0;
        touched.push_back(v);
      }
      acc[v] += s * c;
    }
    for (int v : touched) {
      a.col_idx.push_back(v);
      a.rval.push_back(acc[v]);
    }
    a.row_ptr[i + 1] = static_cast<int>(a.col_idx.size());
  }

  // CSC by counting sort over the CSR entries (rows stay ascending within
  // each column, which keeps FTRAN scatters cache-friendly).
  a.col_ptr.assign(a.cols + 1, 0);
  for (int j : a.col_idx) ++a.col_ptr[j + 1];
  for (int j = 0; j < a.cols; ++j) a.col_ptr[j + 1] += a.col_ptr[j];
  a.row_idx.resize(a.col_idx.size());
  a.val.resize(a.col_idx.size());
  std::vector<int> next(a.col_ptr.begin(), a.col_ptr.end() - 1);
  for (int i = 0; i < a.rows; ++i) {
    for (int e = a.row_ptr[i]; e < a.row_ptr[i + 1]; ++e) {
      const int slot = next[a.col_idx[e]]++;
      a.row_idx[slot] = i;
      a.val[slot] = a.rval[e];
    }
  }
  return a;
}

}  // namespace detail

Result SimplexSolver::solve(const Problem& p) const {
  if (p.num_variables() == 0) {
    Result r;
    r.status = Status::kOptimal;
    r.objective = 0;
    return r;
  }
  obs::ObsSpan span("lp.solve");
  span.arg("warm", "cold");
  detail::RevisedCore c(p, opts_);
  Result r = c.run_cold(p);
  r.time_limit_hit = c.timed_out();
  span.arg("status", to_string(r.status));
  record_solve(r, /*warm=*/false);
  return r;
}

IncrementalSimplex::IncrementalSimplex(const Problem& p,
                                       const SimplexSolver::Options& opts)
    : prob_(p), core_(std::make_unique<detail::RevisedCore>(prob_, opts)) {}

IncrementalSimplex::~IncrementalSimplex() = default;

void IncrementalSimplex::set_bounds(int v, double lo, double hi) {
  prob_.set_bounds(v, lo, hi);
  if (hot_) hot_ = core_->set_bounds_incremental(v, lo, hi);
}

void IncrementalSimplex::invalidate() { hot_ = false; }

Result IncrementalSimplex::solve() {
  if (prob_.num_variables() == 0) {
    Result r;
    r.status = Status::kOptimal;
    r.objective = 0;
    return r;
  }
  obs::ObsSpan span("lp.solve");
  span.arg("warm", hot_ ? "warm" : "cold");
  int wasted = 0;
  int wasted_dual = 0;
  int wasted_flips = 0;
  bool warm_timed_out = false;
  if (hot_) {
    Result r = core_->reoptimize_dual(prob_);
    dual_pivots_ += r.dual_iterations;
    if (r.status == Status::kOptimal || r.status == Status::kInfeasible) {
      // Both outcomes leave the engine consistent and dual feasible: an
      // infeasible node's basis still warm-starts the sibling after its
      // bound fixes are undone.
      ++warm_solves_;
      span.arg("status", to_string(r.status));
      record_solve(r, /*warm=*/true);
      return r;
    }
    wasted = r.iterations;
    wasted_dual = r.dual_iterations;
    wasted_flips = r.bound_flips;
    warm_timed_out = core_->timed_out();
    hot_ = false;
  }
  Result r = core_->run_cold(prob_);
  r.time_limit_hit = warm_timed_out || core_->timed_out();
  r.iterations += wasted;
  r.dual_iterations += wasted_dual;
  r.bound_flips += wasted_flips;
  ++cold_solves_;
  hot_ = (r.status == Status::kOptimal);
  span.arg("status", to_string(r.status));
  record_solve(r, /*warm=*/false);
  return r;
}

}  // namespace vm1::lp
