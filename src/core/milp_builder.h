/// \file milp_builder.h
/// Per-window MILP construction for both cell architectures (Section 3).
///
/// ClosedM1 (Eq. (1)-(9)): minimize  -alpha * sum(d_pq) + sum(beta * w_n)
/// where d_pq = 1 only if pins p, q of a net have equal absolute x and
/// |dy| <= gamma_closed * H; the SCP lambda candidates (5)-(8) choose each
/// cell's placement and (9) keeps sites exclusive. Eq. (4) is written as
/// value-disaggregated rows over the lambdas instead of the paper's big-M
/// pair rows: the same integer set with a tighter LP relaxation.
///
/// OpenM1 (Eq. (10)-(14)): adds per-pair overlap interval [a, b], the
/// out-of-range indicator v_pq (|dy| > gamma * H forces v = 1, and (14)
/// d + v <= 1), and the overlap length o_pq rewarded with weight epsilon,
/// with big-M values computed from candidate ranges.
///
/// For both, the builder folds fixed pins into variable bounds, folds nets
/// whose movable pins all sit on one cell into that cell's lambda costs
/// (no bound variables), skips site rows over a single cell's lambdas, and
/// prunes pairs that can never align/overlap under the candidate sets.
#pragma once

#include <optional>
#include <unordered_map>

#include "core/candidates.h"
#include "milp/branch_and_bound.h"

namespace vm1 {

/// Converts a paper-style alpha (HPWL units of ~1 nm, e.g. 1200) into this
/// library's DBU (site-width) HPWL units.
inline double paper_alpha(double alpha_nm) { return alpha_nm / kNmPerSite; }

/// Paper parameters shared by both formulations. alpha/epsilon/delta are in
/// this library's DBU units (1 DBU = one site width ~ 45 nm); use
/// paper_alpha() to translate the paper's nm-denominated values.
struct VM1Params {
  double alpha = 1200.0 / kNmPerSite;  ///< weight of one dM1 alignment
  double beta = 1;       ///< default per-net HPWL weight (paper uses 1)
  double epsilon = 2;    ///< OpenM1: weight of total overlap length
  int gamma = 3;         ///< OpenM1: max dM1 span in rows
  int gamma_closed = 1;  ///< ClosedM1: max alignment span in rows (Eq. (4))
  Coord delta = 1;       ///< OpenM1: min overlap length for a dM1
  /// Cap on alignment pairs per net (keeps clock nets tractable).
  int max_pairs_per_net = 48;
  /// Optional per-net HPWL weights beta_n (indexed by net id; nets beyond
  /// the vector use `beta`). This realizes the paper's future-work item of
  /// folding timing criticality into the objective — see
  /// timing_criticality_weights().
  std::vector<double> net_beta;

  double beta_of(int net) const {
    return net < static_cast<int>(net_beta.size()) ? net_beta[net] : beta;
  }
};

/// Derives per-net beta_n from an STA run: nets on (near-)critical paths
/// get up to `max_weight`, relaxing linearly with slack. Use as
/// `params.net_beta = timing_criticality_weights(d, router_lengths, 4.0)`.
std::vector<double> timing_criticality_weights(
    const Design& d, const std::vector<long>& net_lengths,
    double max_weight = 4.0);

/// Inputs for one window MILP.
struct WindowProblem {
  const Design* design = nullptr;
  Window window;
  std::vector<int> movable;
  int lx = 4;
  int ly = 1;
  bool allow_move = true;
  bool allow_flip = true;
  VM1Params params;
};

/// A pin reference with cached geometry used by the builder.
struct PairPin {
  int inst = -1;  ///< owner instance (-1 for IO pins)
  int pin = 0;
  int movable_idx = -1;  ///< index into BuiltMilp::cells, or -1 when fixed
};

/// One candidate alignment/overlap pair in the model.
struct AlignPair {
  PairPin p, q;
  int net = -1;
  int d_var = -1;  ///< binary d_pq
  int v_var = -1;  ///< OpenM1 v_pq (-1 when statically decided)
  int o_var = -1;  ///< OpenM1 overlap length
  int a_var = -1;  ///< OpenM1 overlap left edge
  int b_var = -1;  ///< OpenM1 overlap right edge
};

/// The constructed model plus the mapping back to placements.
class BuiltMilp {
 public:
  milp::Model model;
  std::vector<int> cells;                     ///< movable instance ids
  std::vector<std::vector<Candidate>> cands;  ///< per cell
  std::vector<std::vector<int>> lambda;       ///< per cell: lambda var ids
  std::vector<AlignPair> pairs;
  /// Net bound variables (xmax, xmin, ymax, ymin) per net whose movable
  /// pins span two or more cells (one-cell nets live in lambda costs).
  struct NetVars {
    int net;
    int xmax, xmin, ymax, ymin;
  };
  std::vector<NetVars> net_vars;

  bool empty() const { return cells.empty(); }

  /// Encodes the current design placement as a feasible warm-start vector
  /// (the identity assignment; candidate 0 of every cell).
  std::vector<double> warm_start(const Design& d) const;

  /// Applies a MILP solution: chooses each cell's selected candidate.
  void apply(Design& d, const std::vector<double>& x) const;

  /// The placements apply() would write, one per entry of `cells`, without
  /// mutating anything — cells whose solution selects no candidate keep
  /// their current placement. Safe in the read-only parallel phase; also
  /// how the distributed worker ships solutions back as plain deltas.
  std::vector<Placement> chosen_placements(const std::vector<double>& x) const;

  /// Rounding heuristic for branch-and-bound: pick each cell's
  /// highest-lambda candidate, greedily repair site conflicts, and complete
  /// the continuous variables.
  milp::RoundingHeuristic make_heuristic() const;

 private:
  friend BuiltMilp build_window_milp(const WindowProblem&);
  friend struct BuilderAccess;
  /// Completes non-lambda variables (net bounds, d/v/o/a/b) for a given
  /// per-cell candidate choice; returns the full solution vector.
  std::vector<double> complete(const std::vector<int>& chosen) const;
  double pin_x(const PairPin& p, const std::vector<int>& chosen) const;
  double pin_y(const PairPin& p, const std::vector<int>& chosen) const;
  std::pair<double, double> pin_span(const PairPin& p,
                                     const std::vector<int>& chosen) const;

  const Design* design_ = nullptr;
  VM1Params params_;
  Window window_;
  bool open_arch_ = false;
  std::unordered_map<int, int> inst_to_movable_;
};

/// Builds the window MILP for the design's architecture (ClosedM1 /
/// conventional use the alignment formulation; OpenM1 the overlap one).
BuiltMilp build_window_milp(const WindowProblem& prob);

/// Full-design objective (Algorithm 2's CalculateObj): beta * HPWL
/// - alpha * (#alignments) [- epsilon * (total overlap) for OpenM1].
struct ObjectiveBreakdown {
  double hpwl = 0;
  long alignments = 0;     ///< satisfied d_pq pairs across the design
  double overlap_sum = 0;  ///< OpenM1 only
  double value = 0;
};
ObjectiveBreakdown evaluate_objective(const Design& d,
                                      const VM1Params& params);

/// Counts aligned (ClosedM1) / overlapped (OpenM1) pin pairs of one net in
/// the current placement, and the total overlap beyond delta.
std::pair<long, double> count_net_alignments(const Design& d, int net,
                                             const VM1Params& params);

}  // namespace vm1
