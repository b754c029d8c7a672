/// OpenM1 pair formulation: overlap interval [a, b], range indicator v_pq,
/// and overlap length o_pq — Eq. (10)-(14) of the paper.
#include <algorithm>
#include <cmath>

#include "core/milp_builder_detail.h"

namespace vm1::detail {

bool add_open_pair(const WindowProblem& prob, BuiltMilp& built,
                   AlignPair& pair, const PinGeom& P, const PinGeom& Q) {
  const double H = static_cast<double>(prob.design->tech().row_height());
  const double y_bound = prob.params.gamma * H;
  const double delta = static_cast<double>(prob.params.delta);
  const double W = static_cast<double>(prob.design->core().hx);

  // Static pruning on y: if the pins can never be within gamma rows the
  // pair can never earn a dM1.
  double min_dy = std::max({0.0, P.y_min - Q.y_max, Q.y_min - P.y_max});
  if (min_dy > y_bound) return false;
  // Static pruning on x: maximum achievable overlap must reach delta.
  double max_overlap =
      std::min(P.xhi_max, Q.xhi_max) - std::max(P.xlo_min, Q.xlo_min);
  if (max_overlap < delta) return false;

  milp::Model& m = built.model;
  pair.d_var = m.add_binary(-prob.params.alpha, "d");
  m.set_branch_priority(pair.d_var, 1);  // big-M rows: branch d first
  pair.a_var = m.add_continuous(0.0, W, 0.0, "a");
  pair.b_var = m.add_continuous(0.0, W, 0.0, "b");
  pair.o_var = m.add_continuous(0.0, W, -prob.params.epsilon, "o");

  LinExpr a_e, b_e, o_e;
  a_e.add(pair.a_var, 1.0);
  b_e.add(pair.b_var, 1.0);
  o_e.add(pair.o_var, 1.0);

  // (11): a >= xlo_p, a >= xlo_q;  b <= xhi_p, b <= xhi_q.
  add_diff_constraint(m, P.xlo, a_e, 0.0);
  add_diff_constraint(m, Q.xlo, a_e, 0.0);
  add_diff_constraint(m, b_e, P.xhi, 0.0);
  add_diff_constraint(m, b_e, Q.xhi, 0.0);

  // (12) + (14): v_pq = 1 when |dy| > gamma*H; d + v <= 1. Skipped when the
  // pins are always within range (v statically 0).
  double max_dy = std::max(P.y_max - Q.y_min, Q.y_max - P.y_min);
  if (max_dy > y_bound) {
    pair.v_var = m.add_binary(0.0, "v");
    const double gv = max_dy - y_bound + 1.0;
    // y_p - y_q - gv * v <= gamma*H  (and symmetric).
    LinExpr py = P.y, qy = Q.y;
    py.add(pair.v_var, -gv);
    qy.add(pair.v_var, -gv);
    add_diff_constraint(m, py, Q.y, y_bound);
    add_diff_constraint(m, qy, P.y, y_bound);
    m.add_constraint({{pair.d_var, 1.0}, {pair.v_var, 1.0}}, lp::Sense::kLe,
                     1.0);
  }

  // (13): o <= b - a - delta + G(1-d);  o <= G*d;  o >= 0 (variable bound).
  const double go = W + delta + 1.0;
  // o - b + a + go*d <= go - delta
  m.add_constraint({{pair.o_var, 1.0},
                    {pair.b_var, -1.0},
                    {pair.a_var, 1.0},
                    {pair.d_var, go}},
                   lp::Sense::kLe, go - delta);
  m.add_constraint({{pair.o_var, 1.0}, {pair.d_var, -W}}, lp::Sense::kLe,
                   0.0);
  return true;
}

}  // namespace vm1::detail
