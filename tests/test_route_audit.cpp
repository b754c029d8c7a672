#include "route/route_audit.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "place/global_placer.h"
#include "place/legalizer.h"

namespace vm1 {
namespace {

Design random_placed(CellArch arch, std::uint64_t seed, double util) {
  DesignOptions opts;
  opts.seed = seed;
  opts.utilization = util;
  Design d = make_design("tiny", arch, opts);
  global_place(d);
  legalize(d);
  return d;
}

class RouteAuditPerArch : public ::testing::TestWithParam<CellArch> {};

TEST_P(RouteAuditPerArch, HoldsAfterInitialRoute) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Design d = random_placed(GetParam(), seed, 0.6 + 0.1 * seed);
    RouterOptions opts;
    opts.max_iterations = 1;  // initial route only, no rip-up
    opts.route_clock = seed % 2 == 0;
    Router router(d, opts);
    router.route();
    RouteAuditResult a = route_audit(router);
    EXPECT_TRUE(a.ok) << "seed " << seed << ": " << a.violation;
  }
}

TEST_P(RouteAuditPerArch, HoldsAfterRipUp) {
  obs::Counter& victims = obs::counter("route.ripup_victims");
  const long before = victims.value();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Design d = random_placed(GetParam(), seed, 0.9);
    Router router(d);
    router.route();
    RouteAuditResult a = route_audit(router);
    EXPECT_TRUE(a.ok) << "seed " << seed << ": " << a.violation;
  }
  // The congested designs really did rip up and reroute nets.
  EXPECT_GT(victims.value() - before, 0);
}

INSTANTIATE_TEST_SUITE_P(Archs, RouteAuditPerArch,
                         ::testing::Values(CellArch::kClosedM1,
                                           CellArch::kOpenM1,
                                           CellArch::kConventional12T));

TEST(RouteAudit, FlagsARouteLeftStaleByACellMove) {
  // A Router describes the placement it was built on. Moving a routed
  // net's cell far away leaves that pin off the net's tree.
  Design d = random_placed(CellArch::kClosedM1, 7, 0.7);
  Router router(d);
  router.route();
  ASSERT_TRUE(route_audit(router).ok);
  const Netlist& nl = d.netlist();
  int inst = -1;
  for (int n = 0; n < nl.num_nets() && inst < 0; ++n) {
    const NetRoute& nr = router.net_routes()[n];
    if (!nl.net(n).routable() || !nr.routed || nr.wire_edges.empty()) {
      continue;
    }
    for (const NetPin& p : nl.net(n).pins) {
      if (!p.is_io()) {
        inst = p.inst;
        break;
      }
    }
  }
  ASSERT_GE(inst, 0);
  Placement p = d.placement(inst);
  const int sites = d.sites_per_row();
  p.x = p.x < sites / 2 ? sites - nl.cell_of(inst).width_sites : 0;
  d.set_placement(inst, p);
  RouteAuditResult a = route_audit(router);
  EXPECT_FALSE(a.ok);
  EXPECT_NE(a.violation.find("not connected"), std::string::npos)
      << a.violation;
}

}  // namespace
}  // namespace vm1
