/// \file route_audit.h
/// Post-route consistency audit: the routing-side counterpart of
/// window_audit.h. Every paper metric (#dM1, RWL, #via12, DRV) is summed
/// from the per-net routes and the shared usage arrays, so this checks that
/// both describe a real, connected routing.
#pragma once

#include <string>

#include "route/router.h"

namespace vm1 {

struct RouteAuditResult {
  bool ok = true;
  std::string violation;  ///< first violation, human readable (empty if ok)
};

/// Audits `router`'s current routing. Checks, in order:
///  * MazeState wire/via usage equals the per-edge sum over all NetRoutes,
///    and each net's per-layer length and via counts match its edges;
///  * every edge of every net is a legal graph edge usable by that net;
///  * for each net the router routes and reports routed, the wire and via
///    edges form a forest (no cycles) that, joined through each pin's own
///    access nodes, is one connected tree reaching an access node of every
///    pin.
RouteAuditResult route_audit(const Router& router);

}  // namespace vm1
