#include "milp/branch_and_bound.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/rng.h"

#ifndef VM1_FIXTURE_DIR
#define VM1_FIXTURE_DIR "tests/fixtures"
#endif

namespace vm1::milp {
namespace {

MipResult solve(const Model& m) {
  BranchAndBound bnb;
  return bnb.solve(m);
}

TEST(BranchAndBound, PureLpPassesThrough) {
  Model m;
  int x = m.add_continuous(0, 4, -1, "x");
  m.add_constraint({{x, 1.0}}, lp::Sense::kLe, 2.5);
  MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, -2.5, 1e-6);
}

TEST(BranchAndBound, SimpleBinaryChoice) {
  // min -3a - 2b  s.t. a + b <= 1  => a = 1, b = 0.
  Model m;
  int a = m.add_binary(-3, "a");
  int b = m.add_binary(-2, "b");
  m.add_constraint({{a, 1.0}, {b, 1.0}}, lp::Sense::kLe, 1);
  MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, -3, 1e-6);
  EXPECT_NEAR(r.x[a], 1, 1e-6);
  EXPECT_NEAR(r.x[b], 0, 1e-6);
}

TEST(BranchAndBound, KnapsackKnownOptimum) {
  // values {10, 13, 7, 8}, weights {3, 4, 2, 3}, capacity 7.
  // Optimum: items 0+1 (v=23, w=7).
  Model m;
  const double v[] = {10, 13, 7, 8};
  const double w[] = {3, 4, 2, 3};
  std::vector<std::pair<int, double>> cap;
  for (int i = 0; i < 4; ++i) {
    int x = m.add_binary(-v[i]);
    cap.emplace_back(x, w[i]);
  }
  m.add_constraint(cap, lp::Sense::kLe, 7);
  MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, -23, 1e-6);
}

TEST(BranchAndBound, InfeasibleIntegral) {
  // a + b == 1 with both forced to 0 by bounds on a third constraint.
  Model m;
  int a = m.add_binary(0, "a");
  int b = m.add_binary(0, "b");
  m.add_constraint({{a, 1.0}, {b, 1.0}}, lp::Sense::kEq, 1);
  m.add_constraint({{a, 1.0}}, lp::Sense::kLe, 0);
  m.add_constraint({{b, 1.0}}, lp::Sense::kLe, 0);
  EXPECT_EQ(solve(m).status, MipStatus::kInfeasible);
}

TEST(BranchAndBound, FractionalLpForcedInteger) {
  // LP optimum is x = 2.5; integer optimum is 2 (x <= 2.5 constraint).
  Model m;
  int x = m.add_integer(0, 10, -1, "x");
  m.add_constraint({{x, 2.0}}, lp::Sense::kLe, 5);
  MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 2, 1e-6);
}

TEST(BranchAndBound, AssignmentProblemIntegrality) {
  // 3x3 assignment: cost matrix with unique optimum on the diagonal.
  Model m;
  double cost[3][3] = {{1, 5, 5}, {5, 2, 5}, {5, 5, 3}};
  int v[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) v[i][j] = m.add_binary(cost[i][j]);
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<std::pair<int, double>> row, col;
    for (int j = 0; j < 3; ++j) {
      row.emplace_back(v[i][j], 1.0);
      col.emplace_back(v[j][i], 1.0);
    }
    m.add_constraint(row, lp::Sense::kEq, 1);
    m.add_constraint(col, lp::Sense::kEq, 1);
  }
  MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6, 1e-6);
}

TEST(BranchAndBound, WarmStartNeverWorsens) {
  Model m;
  int a = m.add_binary(-1, "a");
  int b = m.add_binary(-1, "b");
  m.add_constraint({{a, 1.0}, {b, 1.0}}, lp::Sense::kLe, 1);
  std::vector<double> warm = {1.0, 0.0};  // feasible with objective -1
  BranchAndBound::Options opts;
  opts.max_nodes = 0;  // forbid all search: incumbent must come from warm
  BranchAndBound bnb(opts);
  MipResult r = bnb.solve(m, nullptr, &warm);
  ASSERT_FALSE(r.x.empty());
  EXPECT_LE(r.objective, -1 + 1e-9);
}

TEST(BranchAndBound, HeuristicSeedsIncumbent) {
  Model m;
  int a = m.add_binary(-2, "a");
  int b = m.add_binary(-3, "b");
  m.add_constraint({{a, 2.0}, {b, 2.0}}, lp::Sense::kLe, 3);
  auto heuristic = [](const Model& model, const std::vector<double>& lpx)
      -> std::optional<std::vector<double>> {
    // Round down: always feasible for <=-only models with positive coeffs.
    std::vector<double> x(lpx.size());
    for (std::size_t i = 0; i < lpx.size(); ++i) x[i] = std::floor(lpx[i]);
    (void)model;
    return x;
  };
  BranchAndBound bnb;
  MipResult r = bnb.solve(m, heuristic);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, -3, 1e-6);  // b alone
}

TEST(BranchAndBound, NodeLimitReportsFeasible) {
  Rng rng(5);
  Model m;
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 18; ++i) {
    int x = m.add_binary(-(1.0 + static_cast<double>(rng.uniform(9))));
    row.emplace_back(x, 1.0 + static_cast<double>(rng.uniform(4)));
  }
  m.add_constraint(row, lp::Sense::kLe, 11);
  BranchAndBound::Options opts;
  opts.max_nodes = 3;
  MipResult r = BranchAndBound(opts).solve(m);
  // With almost no search we still expect an incumbent (rounded LP or a
  // lucky integral node) or an honest kNoSolution.
  if (!r.x.empty()) {
    EXPECT_TRUE(m.is_feasible(r.x, 1e-5));
    EXPECT_GE(r.objective, r.best_bound - 1e-6);
  } else {
    EXPECT_EQ(r.status, MipStatus::kNoSolution);
  }
}

TEST(BranchAndBound, NanWarmStartIsRejected) {
  Model m;
  int a = m.add_binary(-1, "a");
  m.add_constraint({{a, 1.0}}, lp::Sense::kLe, 1);
  std::vector<double> warm = {std::nan("")};
  BranchAndBound::Options opts;
  opts.max_nodes = 0;  // incumbent can only come from the warm start
  MipResult r = BranchAndBound(opts).solve(m, nullptr, &warm);
  EXPECT_TRUE(r.x.empty());
  EXPECT_EQ(r.status, MipStatus::kNoSolution);
}

TEST(BranchAndBound, InfiniteWarmStartIsRejected) {
  Model m;
  int a = m.add_binary(-1, "a");
  m.add_constraint({{a, 1.0}}, lp::Sense::kLe, 1);
  std::vector<double> warm = {std::numeric_limits<double>::infinity()};
  BranchAndBound::Options opts;
  opts.max_nodes = 0;
  MipResult r = BranchAndBound(opts).solve(m, nullptr, &warm);
  EXPECT_TRUE(r.x.empty());
  EXPECT_EQ(r.status, MipStatus::kNoSolution);
}

TEST(BranchAndBound, WrongSizeWarmStartIsRejected) {
  Model m;
  int a = m.add_binary(-1, "a");
  int b = m.add_binary(-1, "b");
  m.add_constraint({{a, 1.0}, {b, 1.0}}, lp::Sense::kLe, 1);
  std::vector<double> warm = {1.0};  // missing b
  BranchAndBound::Options opts;
  opts.max_nodes = 0;
  MipResult r = BranchAndBound(opts).solve(m, nullptr, &warm);
  EXPECT_TRUE(r.x.empty());
}

TEST(BranchAndBound, NanHeuristicDoesNotPoisonSearch) {
  // A heuristic that returns NaN coordinates must be ignored; the search
  // still proves the true optimum.
  Model m;
  int a = m.add_binary(-2, "a");
  int b = m.add_binary(-3, "b");
  m.add_constraint({{a, 2.0}, {b, 2.0}}, lp::Sense::kLe, 3);
  auto heuristic = [](const Model& model, const std::vector<double>& lpx)
      -> std::optional<std::vector<double>> {
    (void)model;
    return std::vector<double>(lpx.size(), std::nan(""));
  };
  MipResult r = BranchAndBound().solve(m, heuristic);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, -3, 1e-6);
}

TEST(BranchAndBound, OptionsValidationRejectsGarbage) {
  Model m;
  int a = m.add_binary(-1, "a");
  m.add_constraint({{a, 1.0}}, lp::Sense::kLe, 1);

  BranchAndBound::Options opts;
  opts.max_nodes = -1;
  EXPECT_THROW(BranchAndBound(opts).solve(m), std::invalid_argument);

  opts = {};
  opts.time_limit_sec = -0.5;
  EXPECT_THROW(BranchAndBound(opts).solve(m), std::invalid_argument);

  opts = {};
  opts.int_tol = std::nan("");
  EXPECT_THROW(BranchAndBound(opts).solve(m), std::invalid_argument);

  opts = {};
  opts.gap_tol = -1e-9;
  EXPECT_THROW(BranchAndBound(opts).solve(m), std::invalid_argument);

  opts = {};
  opts.lp_options.max_iterations = 0;
  EXPECT_THROW(BranchAndBound(opts).solve(m), std::invalid_argument);
}

TEST(BranchAndBound, CancelTokenStopsSearch) {
  // A pre-set cancellation token means zero nodes are explored; with a warm
  // start the incumbent still survives the truncated search.
  Model m;
  int a = m.add_binary(-3, "a");
  int b = m.add_binary(-2, "b");
  m.add_constraint({{a, 1.0}, {b, 1.0}}, lp::Sense::kLe, 1);
  std::vector<double> warm = {0.0, 1.0};  // feasible, objective -2
  std::atomic<bool> cancel{true};
  BranchAndBound::Options opts;
  opts.cancel = &cancel;
  MipResult r = BranchAndBound(opts).solve(m, nullptr, &warm);
  EXPECT_EQ(r.nodes_explored, 0);
  ASSERT_FALSE(r.x.empty());
  EXPECT_NEAR(r.objective, -2, 1e-9);
  EXPECT_EQ(r.status, MipStatus::kFeasible);  // truncated, not proven
}

class BnBExhaustive : public ::testing::TestWithParam<int> {};

// Property: on random small binary MILPs the B&B optimum matches exhaustive
// enumeration over all 2^n assignments.
TEST_P(BnBExhaustive, MatchesEnumeration) {
  Rng rng(900 + GetParam());
  const int n = 3 + static_cast<int>(rng.uniform(6));  // up to 8 binaries
  const int mrows = 1 + static_cast<int>(rng.uniform(4));

  Model m;
  std::vector<double> cost(n);
  for (int j = 0; j < n; ++j) {
    cost[j] = rng.uniform_int(-6, 6);
    m.add_binary(cost[j]);
  }
  struct Row {
    std::vector<double> a;
    double rhs;
    lp::Sense sense;
  };
  std::vector<Row> rows;
  for (int i = 0; i < mrows; ++i) {
    Row row;
    row.a.resize(n);
    for (int j = 0; j < n; ++j) {
      row.a[j] = static_cast<double>(rng.uniform_int(-3, 3));
    }
    row.rhs = static_cast<double>(rng.uniform_int(-2, 6));
    row.sense = rng.chance(0.5) ? lp::Sense::kLe : lp::Sense::kGe;
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < n; ++j) {
      if (row.a[j] != 0) terms.emplace_back(j, row.a[j]);
    }
    if (terms.empty()) continue;
    m.add_constraint(terms, row.sense, row.rhs);
    rows.push_back(row);
  }

  // Exhaustive reference.
  double best = std::numeric_limits<double>::infinity();
  for (int mask = 0; mask < (1 << n); ++mask) {
    bool ok = true;
    for (const Row& row : rows) {
      double lhs = 0;
      for (int j = 0; j < n; ++j) {
        if (mask & (1 << j)) lhs += row.a[j];
      }
      if (row.sense == lp::Sense::kLe ? lhs > row.rhs + 1e-9
                                      : lhs < row.rhs - 1e-9) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    double obj = 0;
    for (int j = 0; j < n; ++j) {
      if (mask & (1 << j)) obj += cost[j];
    }
    best = std::min(best, obj);
  }

  MipResult r = solve(m);
  if (std::isinf(best)) {
    EXPECT_EQ(r.status, MipStatus::kInfeasible) << "instance " << GetParam();
  } else {
    ASSERT_EQ(r.status, MipStatus::kOptimal) << "instance " << GetParam();
    EXPECT_NEAR(r.objective, best, 1e-6) << "instance " << GetParam();
    EXPECT_TRUE(m.is_feasible(r.x, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMilp, BnBExhaustive, ::testing::Range(0, 40));

class BnBWarmCold : public ::testing::TestWithParam<int> {};

// Property: warm-started branch-and-bound (basis reuse + dual simplex)
// proves the same optimal objective as the cold-start search on randomized
// window-MILP-shaped instances (candidate binaries with exclusivity,
// shared-site coupling, and big-M alignment indicators).
TEST_P(BnBWarmCold, IdenticalOptimaWithAndWithoutWarmStart) {
  Rng rng(1300 + GetParam());
  const int cells = 3 + static_cast<int>(rng.uniform(3));
  const int cands = 3 + static_cast<int>(rng.uniform(2));

  Model m;
  std::vector<std::vector<int>> lam(cells);
  std::vector<int> xpos(cells);
  for (int c = 0; c < cells; ++c) {
    for (int k = 0; k < cands; ++k) {
      lam[c].push_back(
          m.add_binary(0.1 * static_cast<double>(rng.uniform(40))));
    }
    xpos[c] = m.add_continuous(0, 20, 0);
    std::vector<std::pair<int, double>> link{{xpos[c], 1.0}};
    for (int k = 0; k < cands; ++k) {
      link.emplace_back(lam[c][k], -static_cast<double>(rng.uniform(20)));
    }
    m.add_constraint(link, lp::Sense::kEq, 0);
    std::vector<std::pair<int, double>> excl;
    for (int v : lam[c]) excl.emplace_back(v, 1.0);
    m.add_constraint(excl, lp::Sense::kEq, 1);
  }
  for (int r = 0; r < cells; ++r) {
    std::vector<std::pair<int, double>> row;
    for (int c = 0; c < cells; ++c) {
      row.emplace_back(lam[c][rng.uniform(cands)], 1.0);
    }
    m.add_constraint(row, lp::Sense::kLe, 1);
  }
  const double big_m = 30;
  for (int i = 0; i < 3; ++i) {
    int a = static_cast<int>(rng.uniform(cells));
    int b = static_cast<int>(rng.uniform(cells));
    if (a == b) continue;
    int d = m.add_binary(-4.0 - static_cast<double>(rng.uniform(5)));
    m.add_constraint({{xpos[a], 1.0}, {xpos[b], -1.0}, {d, big_m}},
                     lp::Sense::kLe, big_m);
    m.add_constraint({{xpos[b], 1.0}, {xpos[a], -1.0}, {d, big_m}},
                     lp::Sense::kLe, big_m);
  }

  BranchAndBound::Options opts;
  opts.max_nodes = 200000;
  opts.use_warm_start = false;
  MipResult cold = BranchAndBound(opts).solve(m);
  opts.use_warm_start = true;
  MipResult warm = BranchAndBound(opts).solve(m);

  // Tight coupling can make an instance genuinely infeasible; both modes
  // must agree on that verdict too.
  ASSERT_EQ(warm.status, cold.status) << "instance " << GetParam();
  if (cold.status == MipStatus::kInfeasible) return;
  ASSERT_EQ(cold.status, MipStatus::kOptimal) << "instance " << GetParam();
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6)
      << "instance " << GetParam();
  EXPECT_TRUE(m.is_feasible(warm.x, 1e-5));

  // Counter plumbing: cold search never reuses a basis; warm search only
  // pays a cold solve at the root (plus rare numerical restarts).
  EXPECT_EQ(cold.warm_solves, 0);
  EXPECT_EQ(cold.dual_pivots, 0);
  if (warm.nodes_explored > 1) {
    EXPECT_GT(warm.warm_solves, 0) << "instance " << GetParam();
  }
  EXPECT_LT(warm.cold_restarts, warm.nodes_explored + 1);
}

INSTANTIATE_TEST_SUITE_P(RandomWindowMilp, BnBWarmCold,
                         ::testing::Range(0, 25));

/// Reads a model fixture (format in the file's header comment) and its
/// warm-start vector.
Model load_model_fixture(const std::string& path, std::vector<double>* warm) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::stringstream body;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] != '#') body << line << '\n';
  }
  Model m;
  std::string tag;
  int n = 0;
  body >> tag >> n;
  EXPECT_EQ(tag, "vars");
  for (int v = 0; v < n; ++v) {
    double lo = 0, hi = 0, cost = 0;
    int is_int = 0, priority = 0;
    body >> lo >> hi >> cost >> is_int >> priority;
    const int id = is_int ? m.add_integer(lo, hi, cost)
                          : m.add_continuous(lo, hi, cost);
    m.set_branch_priority(id, priority);
  }
  int rows = 0;
  body >> tag >> rows;
  EXPECT_EQ(tag, "rows");
  for (int i = 0; i < rows; ++i) {
    int sense = 0;
    double rhs = 0;
    std::size_t k = 0;
    body >> sense >> rhs >> k;
    std::vector<std::pair<int, double>> terms(k);
    for (auto& [v, c] : terms) body >> v >> c;
    m.add_constraint(std::move(terms), static_cast<lp::Sense>(sense), rhs);
  }
  body >> tag;
  EXPECT_EQ(tag, "warm");
  warm->assign(n, 0.0);
  for (double& x : *warm) body >> x;
  EXPECT_TRUE(body) << "truncated fixture " << path;
  return m;
}

// A window whose node LPs stall into Bland mode. With bound flips still on
// in Bland mode the dual simplex cycled until its iteration cap (the flow
// only escaped through the LP wall clock, so its QoR depended on timing).
// Without a wall clock every node LP must still finish, well inside the
// cap.
TEST(BranchAndBound, BlandModeDualSimplexTerminates) {
  std::vector<double> warm;
  const Model m =
      load_model_fixture(std::string(VM1_FIXTURE_DIR) + "/bland_window.milp",
                         &warm);
  ASSERT_EQ(m.num_variables(), 159);
  ASSERT_EQ(m.num_constraints(), 135);
  BranchAndBound::Options o;
  o.max_nodes = 60;  // the window optimizer's node cap
  o.lp_options.time_limit_sec = 0;
  const MipResult r = BranchAndBound(o).solve(m, nullptr, &warm);
  EXPECT_EQ(r.nodes_explored, 60);
  EXPECT_LT(r.lp_iterations, o.lp_options.max_iterations);
  ASSERT_FALSE(r.x.empty());
  EXPECT_LE(r.objective, m.objective_value(warm) + 1e-9);
}

}  // namespace
}  // namespace vm1::milp
