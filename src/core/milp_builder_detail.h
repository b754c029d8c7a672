/// \file milp_builder_detail.h
/// Internal shared machinery between the ClosedM1 and OpenM1 MILP builders.
#pragma once

#include "core/milp_builder.h"

namespace vm1::detail {

/// Affine expression over model variables: sum(coeff * var) + constant.
struct LinExpr {
  std::vector<std::pair<int, double>> terms;
  double constant = 0;

  void add(int var, double coeff) { terms.emplace_back(var, coeff); }
};

/// Pin geometry prepared for pair-constraint construction. For a movable
/// pin the expressions range over its owner cell's lambda variables; for a
/// fixed pin they are constants.
struct PinGeom {
  bool movable = false;
  LinExpr x;    ///< pin track / midpoint x
  LinExpr xlo;  ///< pin span left edge (OpenM1)
  LinExpr xhi;  ///< pin span right edge (OpenM1)
  LinExpr y;    ///< absolute pin y
  // Achievable ranges over the candidate set (== the constant for fixed).
  double x_min = 0, x_max = 0;
  double xlo_min = 0, xlo_max = 0;
  double xhi_min = 0, xhi_max = 0;
  double y_min = 0, y_max = 0;
};

/// Adds the constraint  a - b <= rhs.
void add_diff_constraint(milp::Model& model, const LinExpr& a,
                         const LinExpr& b, double rhs);

/// Builds PinGeom for (inst, pin). `movable_idx` >= 0 selects the movable
/// cell whose candidates/lambdas drive the expressions.
PinGeom make_pin_geom(const Design& d, const BuiltMilp& built,
                      int movable_idx, int inst, int pin);

/// Architecture-specific pair emission. Returns false when the pair is
/// statically impossible and should be skipped.
bool add_closed_pair(const WindowProblem& prob, BuiltMilp& built,
                     AlignPair& pair, const PinGeom& P, const PinGeom& Q);
bool add_open_pair(const WindowProblem& prob, BuiltMilp& built,
                   AlignPair& pair, const PinGeom& P, const PinGeom& Q);

}  // namespace vm1::detail
