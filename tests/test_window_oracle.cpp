/// Brute-force oracle for the window MILP: for tiny windows (<= 6 movable
/// cells) the full cross-product of per-cell SCP candidates is enumerated,
/// every pairwise-site-legal assignment is scored with the *design-level*
/// objective restricted to the incident nets (beta_n * HPWL - alpha *
/// alignments [- epsilon * overlap for OpenM1]), and the branch-and-bound
/// window solve must land exactly on the enumerated optimum. This closes
/// the loop between the MILP encoding (big-M alignment constraints, lambda
/// exclusivity, folded fixed pins) and the objective the rest of the
/// system actually measures — any drift between the two shows up as the
/// solver "beating" or missing the oracle. Every legal assignment is also
/// completed into a full model vector, which must satisfy every row (an
/// over-tight alignment row would cut it off), must stop satisfying them
/// when an unaligned pair's d is raised to 1 (a missing row would not), and
/// whose model objective must differ from the design-level one by the same
/// constant (a wrong folded HPWL cost would not).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cells/library_builder.h"
#include "core/milp_builder.h"
#include "design/legality.h"
#include "place/global_placer.h"
#include "place/hpwl.h"
#include "place/legalizer.h"
#include "util/rng.h"

namespace vm1 {

/// Test access to BuiltMilp::complete (a friend of BuiltMilp).
struct BuilderAccess {
  static std::vector<double> complete(const BuiltMilp& b,
                                      const std::vector<int>& chosen) {
    return b.complete(chosen);
  }
};

namespace {

/// Two INVs in adjacent rows connected ZN -> A, misaligned by `offset`
/// sites, inside a wide-open core (same fixture as the builder tests).
Design make_pair_design(CellArch arch, int offset) {
  auto lib = std::make_unique<Library>(build_library(arch));
  auto nl = std::make_unique<Netlist>(lib.get());
  int inv = lib->find("INV_X1_SVT");
  const Cell& c = lib->cell(inv);
  int u0 = nl->add_instance("u0", inv);
  int u1 = nl->add_instance("u1", inv);
  int net = nl->add_net("n0");
  nl->connect(net, NetPin{u0, c.pin_index("ZN")});
  nl->connect(net, NetPin{u1, c.pin_index("A")});
  Design d("pair", Tech::make_7nm(), std::move(lib), std::move(nl), 4, 32);
  d.set_placement(u0, Placement{10, 1, false});
  d.set_placement(u1, Placement{11 + offset, 2, false});
  return d;
}

WindowProblem whole_core_problem(const Design& d, int lx, int ly) {
  WindowProblem wp;
  wp.design = &d;
  wp.window.x0 = 0;
  wp.window.x1 = d.sites_per_row();
  wp.window.row0 = 0;
  wp.window.row1 = d.num_rows() - 1;
  for (int i = 0; i < d.netlist().num_instances(); ++i) {
    wp.movable.push_back(i);
  }
  wp.lx = lx;
  wp.ly = ly;
  return wp;
}

std::vector<int> incident_routable_nets(const Design& d,
                                        const std::vector<int>& movable) {
  std::vector<int> nets;
  for (int i : movable) {
    for (int n : d.netlist().nets_of(i)) {
      if (d.netlist().net(n).routable()) nets.push_back(n);
    }
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  return nets;
}

/// Design-level objective restricted to `nets` — the oracle's yardstick.
/// Exactly mirrors evaluate_objective() but over the incident nets only
/// (everything else is constant across window assignments).
double restricted_objective(const Design& d, const std::vector<int>& nets,
                            const VM1Params& params) {
  const bool open = d.library().arch() == CellArch::kOpenM1;
  double value = 0;
  for (int n : nets) {
    value += params.beta_of(n) * static_cast<double>(net_hpwl(d, n));
    auto [cnt, ovl] = count_net_alignments(d, n, params);
    value -= params.alpha * static_cast<double>(cnt);
    if (open) value -= params.epsilon * ovl;
  }
  return value;
}

struct OracleResult {
  double best = std::numeric_limits<double>::infinity();
  long legal_assignments = 0;
  long long product = 0;  ///< full cross-product size (pre-legality)
};

/// Called once per legal assignment with each cell's candidate index and
/// the assignment's restricted objective.
using AssignmentVisitor =
    std::function<void(const std::vector<int>& chosen, double value)>;

/// Enumerates the cross-product of candidate lists and scores every
/// pairwise-legal assignment. Returns false (without touching `out`) when
/// the product exceeds `cap` — callers skip such windows. The design is
/// mutated during the sweep and restored before returning.
bool enumerate_oracle(Design& d, const WindowProblem& wp, long long cap,
                      OracleResult* out,
                      const AssignmentVisitor& visit = nullptr) {
  const Netlist& nl = d.netlist();
  auto mask = fixed_site_mask(d, wp.window, wp.movable);
  std::vector<std::vector<Candidate>> cands;
  long long product = 1;
  for (int inst : wp.movable) {
    cands.push_back(enumerate_candidates(d, inst, wp.window, mask, wp.lx,
                                         wp.ly, wp.allow_move,
                                         wp.allow_flip));
    if (cands.back().empty()) return false;
    product *= static_cast<long long>(cands.back().size());
    if (product > cap) return false;
  }

  std::vector<int> widths;
  for (int inst : wp.movable) widths.push_back(nl.cell_of(inst).width_sites);
  std::vector<int> nets = incident_routable_nets(d, wp.movable);
  std::vector<Placement> original;
  for (int inst : wp.movable) original.push_back(d.placement(inst));

  const std::size_t k = wp.movable.size();
  std::vector<int> idx(k, 0);
  OracleResult res;
  res.product = product;
  while (true) {
    // Constraint (9): movable footprints must be pairwise disjoint.
    bool legal = true;
    for (std::size_t i = 0; i < k && legal; ++i) {
      const Candidate& a = cands[i][idx[i]];
      for (std::size_t j = i + 1; j < k && legal; ++j) {
        const Candidate& b = cands[j][idx[j]];
        if (a.row == b.row && a.x < b.x + widths[j] &&
            b.x < a.x + widths[i]) {
          legal = false;
        }
      }
    }
    if (legal) {
      for (std::size_t i = 0; i < k; ++i) {
        d.set_placement(wp.movable[i], cands[i][idx[i]]);
      }
      const double value = restricted_objective(d, nets, wp.params);
      res.best = std::min(res.best, value);
      ++res.legal_assignments;
      if (visit) visit(idx, value);
    }
    // Odometer step.
    std::size_t pos = 0;
    while (pos < k &&
           ++idx[pos] == static_cast<int>(cands[pos].size())) {
      idx[pos++] = 0;
    }
    if (pos == k) break;
  }
  for (std::size_t i = 0; i < k; ++i) {
    d.set_placement(wp.movable[i], original[i]);
  }
  *out = res;
  return true;
}

/// Builds + solves the window MILP (proof of optimality required), applies
/// the solution, and returns the applied placement's oracle value.
double milp_oracle_value(Design& d, const WindowProblem& wp,
                         const std::string& tag) {
  std::vector<int> nets = incident_routable_nets(d, wp.movable);
  BuiltMilp built = build_window_milp(wp);
  if (built.empty()) {
    // No net couples the window to the objective: everything is constant.
    return restricted_objective(d, nets, wp.params);
  }
  std::vector<double> warm = built.warm_start(d);
  milp::BranchAndBound::Options mo;
  mo.max_nodes = 400000;  // generous: the proof must close, not truncate
  mo.time_limit_sec = 100;
  milp::BranchAndBound bnb(mo);
  milp::MipResult r = bnb.solve(built.model, built.make_heuristic(), &warm);
  EXPECT_EQ(r.status, milp::MipStatus::kOptimal) << tag;
  EXPECT_FALSE(r.x.empty()) << tag;
  built.apply(d, r.x);
  EXPECT_TRUE(is_legal(d)) << tag;
  return restricted_objective(d, nets, wp.params);
}

/// What the built window models exercised, summed over oracle cases.
struct Coverage {
  int folded_nets = 0;    ///< nets folded into lambda costs
  int fixed_pairs = 0;    ///< alignment pairs with one fixed pin
  int movable_pairs = 0;  ///< alignment pairs of two movable pins
};

/// One full oracle round: enumerated optimum == applied MILP optimum, and
/// every legal assignment completes to a feasible model point whose model
/// objective tracks the design-level objective up to one constant.
void run_oracle_case(Design& d, const WindowProblem& wp, long long cap,
                     const std::string& tag, Coverage* cov = nullptr) {
  std::vector<int> nets = incident_routable_nets(d, wp.movable);
  double current = restricted_objective(d, nets, wp.params);
  const BuiltMilp built = build_window_milp(wp);
  if (cov && !built.empty()) {
    cov->folded_nets +=
        static_cast<int>(nets.size() - built.net_vars.size());
    for (const AlignPair& pr : built.pairs) {
      if (pr.p.movable_idx >= 0 && pr.q.movable_idx >= 0) {
        ++cov->movable_pairs;
      } else {
        ++cov->fixed_pairs;
      }
    }
  }
  double offset = std::numeric_limits<double>::quiet_NaN();
  long failures = 0;
  auto check_assignment = [&](const std::vector<int>& chosen, double value) {
    if (built.empty()) return;
    std::vector<double> x = BuilderAccess::complete(built, chosen);
    const double violation = built.model.lp().max_violation(x);
    const double diff = built.model.objective_value(x) - value;
    if (std::isnan(offset)) offset = diff;
    // The rows must also cut off d = 1 on every pair this assignment leaves
    // unaligned (a missing row would let the solver claim the alignment).
    int loose_pair = -1;
    for (std::size_t i = 0; i < built.pairs.size() && loose_pair < 0; ++i) {
      const int dv = built.pairs[i].d_var;
      if (x[dv] > 0.5) continue;
      x[dv] = 1.0;
      if (built.model.lp().max_violation(x) < 0.5) {
        loose_pair = static_cast<int>(i);
      }
      x[dv] = 0.0;
    }
    // Report the first bad assignment only; one is enough to debug.
    if (violation > 1e-9 || std::abs(diff - offset) > 1e-6 ||
        loose_pair >= 0) {
      if (failures++ == 0) {
        ADD_FAILURE() << tag << ": legal assignment violates the model by "
                      << violation << ", objective offset " << diff
                      << " vs " << offset << ", unaligned pair "
                      << loose_pair << " admits d = 1";
      }
    }
  };
  OracleResult oracle;
  ASSERT_TRUE(enumerate_oracle(d, wp, cap, &oracle, check_assignment))
      << tag << ": enumeration exceeded cap";
  ASSERT_GT(oracle.legal_assignments, 0) << tag;
  // Candidate 0 of every cell is the current placement, so the identity
  // assignment is always enumerated: the oracle can never be worse than
  // doing nothing.
  EXPECT_LE(oracle.best, current + 1e-9) << tag;
  double milp_value = milp_oracle_value(d, wp, tag);
  // The MILP searches exactly the enumerated space, so it can neither beat
  // nor miss the oracle optimum.
  EXPECT_NEAR(milp_value, oracle.best, 1e-6)
      << tag << " (" << oracle.legal_assignments << " legal of "
      << oracle.product << " assignments)";
}

TEST(WindowOracle, PairClosedM1AcrossAlphas) {
  // Sweep alpha through "never align" (0), marginal, and "always align"
  // regimes; the oracle optimum shifts and the MILP must track it.
  for (double alpha : {0.0, 2.0, 5.0, 26.0, 60.0}) {
    Design d = make_pair_design(CellArch::kClosedM1, 2);
    WindowProblem wp = whole_core_problem(d, 3, 1);
    wp.params.alpha = alpha;
    wp.params.max_pairs_per_net = 10000;
    run_oracle_case(d, wp, 1 << 20,
                    "closed pair alpha=" + std::to_string(alpha));
  }
}

TEST(WindowOracle, PairOpenM1AcrossAlphasAndEpsilons) {
  for (double alpha : {0.0, 8.0, 40.0}) {
    for (double epsilon : {0.0, 2.0, 6.0}) {
      Design d = make_pair_design(CellArch::kOpenM1, 4);
      WindowProblem wp = whole_core_problem(d, 3, 1);
      wp.params.alpha = alpha;
      wp.params.epsilon = epsilon;
      wp.params.max_pairs_per_net = 10000;
      run_oracle_case(d, wp, 1 << 20,
                      "open pair alpha=" + std::to_string(alpha) +
                          " eps=" + std::to_string(epsilon));
    }
  }
}

/// Carves random tiny windows out of seeded `tiny` designs and oracles
/// each one. Windows with more than `kMaxCells` movables or a candidate
/// product over the cap are skipped; the test insists enough usable
/// windows were found so it cannot pass vacuously.
void random_window_cases(CellArch arch, std::uint64_t seed_base,
                         int want_cases, bool flip_only,
                         Coverage* cov = nullptr) {
  constexpr int kMaxCells = 6;
  constexpr long long kCap = 250000;
  int done = 0;
  for (std::uint64_t seed = seed_base;
       done < want_cases && seed < seed_base + 80; ++seed) {
    Rng rng(seed);
    DesignOptions dopt;
    dopt.scale = 0.25;
    dopt.utilization = 0.6 + 0.3 * rng.uniform_real();
    dopt.seed = rng.next() | 1;
    Design d = make_design("tiny", arch, dopt);
    GlobalPlaceOptions gp;
    gp.seed = rng.next() | 1;
    global_place(d, gp);
    legalize(d);

    WindowProblem wp;
    wp.design = &d;
    // Two-row windows wide enough to catch several cells: the interesting
    // oracle cases are the ones where movables compete for sites.
    int bw = 8 + static_cast<int>(rng.uniform(7));
    int bh = flip_only ? 1 + static_cast<int>(rng.uniform(2)) : 2;
    wp.window.x0 = static_cast<int>(rng.uniform(
        std::max(1, d.sites_per_row() - bw)));
    wp.window.x1 = std::min(d.sites_per_row(), wp.window.x0 + bw);
    wp.window.row0 = static_cast<int>(rng.uniform(
        std::max(1, d.num_rows() - bh)));
    wp.window.row1 = std::min(d.num_rows() - 1, wp.window.row0 + bh - 1);
    const Netlist& nl = d.netlist();
    for (int i = 0; i < nl.num_instances(); ++i) {
      const Placement& p = d.placement(i);
      if (wp.window.contains_footprint(p.x, p.row,
                                       nl.cell_of(i).width_sites)) {
        wp.movable.push_back(i);
      }
    }
    const int min_cells = flip_only ? 1 : 2;
    if (static_cast<int>(wp.movable.size()) < min_cells ||
        static_cast<int>(wp.movable.size()) > kMaxCells) {
      continue;
    }
    if (flip_only) {
      wp.allow_move = false;
      wp.allow_flip = true;
      wp.lx = 0;
      wp.ly = 0;
    } else {
      wp.lx = 1 + static_cast<int>(rng.uniform(2));
      wp.ly = static_cast<int>(rng.uniform(2));
      wp.allow_flip = rng.chance(0.5);
    }
    wp.params.alpha = 4 + 30 * rng.uniform_real();
    wp.params.max_pairs_per_net = 10000;

    OracleResult probe;  // pre-check the cap so skips don't count as cases
    if (!enumerate_oracle(d, wp, kCap, &probe)) continue;
    run_oracle_case(d, wp, kCap,
                    "seed " + std::to_string(seed) + " window [" +
                        std::to_string(wp.window.x0) + "," +
                        std::to_string(wp.window.x1) + ")x[" +
                        std::to_string(wp.window.row0) + "," +
                        std::to_string(wp.window.row1) + "]",
                    cov);
    ++done;
  }
  EXPECT_EQ(done, want_cases)
      << "not enough usable oracle windows; widen the seed range";
}

TEST(WindowOracle, RandomWindowsClosedM1) {
  Coverage cov;
  random_window_cases(CellArch::kClosedM1, 1000, 24, /*flip_only=*/false,
                      &cov);
  // Every branch of the formulation must have been held to the oracle.
  EXPECT_GT(cov.folded_nets, 0);
  EXPECT_GT(cov.fixed_pairs, 0);
  EXPECT_GT(cov.movable_pairs, 0);
}

TEST(WindowOracle, RandomWindowsOpenM1) {
  random_window_cases(CellArch::kOpenM1, 2000, 6, /*flip_only=*/false);
}

TEST(WindowOracle, RandomFlipOnlyWindows) {
  // The flip pass of Algorithm 1 (lx = ly = 0): 2^n assignments, so the
  // oracle is exhaustive even for the densest windows.
  random_window_cases(CellArch::kClosedM1, 3000, 4, /*flip_only=*/true);
  random_window_cases(CellArch::kOpenM1, 4000, 4, /*flip_only=*/true);
}

}  // namespace
}  // namespace vm1
