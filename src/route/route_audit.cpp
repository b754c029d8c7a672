#include "route/route_audit.h"

#include <unordered_map>
#include <utility>

namespace vm1 {
namespace {

RouteAuditResult fail(std::string msg) { return {false, std::move(msg)}; }

std::string net_tag(const Netlist& nl, int net) {
  return "net " + std::to_string(net) + " (" + nl.net(net).name + ")";
}

/// Union-find over the graph nodes one net touches.
class NodeSets {
 public:
  int index(std::size_t node) {
    auto [it, fresh] = index_.try_emplace(node, static_cast<int>(up_.size()));
    if (fresh) up_.push_back(it->second);
    return it->second;
  }
  int find(int i) {
    while (up_[i] != i) i = up_[i] = up_[up_[i]];
    return i;
  }
  /// Joins the sets of a and b; false when they were already one set.
  bool join(std::size_t a, std::size_t b) {
    int ra = find(index(a));
    int rb = find(index(b));
    if (ra == rb) return false;
    up_[ra] = rb;
    return true;
  }

 private:
  std::unordered_map<std::size_t, int> index_;
  std::vector<int> up_;
};

}  // namespace

RouteAuditResult route_audit(const Router& router) {
  const TrackGraph& g = router.graph();
  const MazeState& st = router.state();
  const Design& d = g.design();
  const Netlist& nl = d.netlist();
  const std::vector<NetRoute>& routes = router.net_routes();
  const std::size_t n = g.num_nodes();

  // Usage arrays equal the sum over net routes; per-net tallies match.
  std::vector<int> wire_sum(n, 0);
  std::vector<int> via_sum(n, 0);
  for (int net = 0; net < static_cast<int>(routes.size()); ++net) {
    const NetRoute& nr = routes[net];
    long len[kNumRouteLayers] = {0, 0, 0, 0};
    int vias[kNumRouteLayers - 1] = {0, 0, 0};
    for (std::size_t e : nr.wire_edges) {
      if (e >= n) return fail(net_tag(nl, net) + ": wire edge out of range");
      ++wire_sum[e];
      const int layer = g.node_at(e).layer;
      len[layer] += TrackGraph::edge_len_dbu(layer);
    }
    for (std::size_t e : nr.via_edges) {
      if (e >= n) return fail(net_tag(nl, net) + ": via out of range");
      ++via_sum[e];
      const int layer = g.node_at(e).layer;
      if (layer >= kNumRouteLayers - 1) {
        return fail(net_tag(nl, net) + ": via above the top layer");
      }
      ++vias[layer];
    }
    for (int l = 0; l < kNumRouteLayers; ++l) {
      if (len[l] != nr.len_by_layer[l]) {
        return fail(net_tag(nl, net) + ": M" + std::to_string(l + 1) +
                    " length " + std::to_string(nr.len_by_layer[l]) +
                    " != edge sum " + std::to_string(len[l]));
      }
    }
    for (int l = 0; l + 1 < kNumRouteLayers; ++l) {
      if (vias[l] != nr.vias_by_pair[l]) {
        return fail(net_tag(nl, net) + ": via" + std::to_string(l + 1) +
                    std::to_string(l + 2) + " count mismatch");
      }
    }
  }
  for (std::size_t e = 0; e < n; ++e) {
    if (st.wire_use(e) != wire_sum[e] || st.via_use(e) != via_sum[e]) {
      return fail("usage at node " + std::to_string(e) + ": wire " +
                  std::to_string(st.wire_use(e)) + " vs routes " +
                  std::to_string(wire_sum[e]) + ", via " +
                  std::to_string(st.via_use(e)) + " vs routes " +
                  std::to_string(via_sum[e]));
    }
  }

  const bool route_clock = router.options().route_clock;
  for (int net = 0; net < static_cast<int>(routes.size()); ++net) {
    const NetRoute& nr = routes[net];
    const Net& nt = nl.net(net);
    NodeSets sets;

    // Edges: legal for this net, and acyclic among themselves.
    for (std::size_t e : nr.wire_edges) {
      const GNode a = g.node_at(e);
      if (!g.edge_allowed(a.layer, a.gx, a.gy, net)) {
        return fail(net_tag(nl, net) + ": wire edge at node " +
                    std::to_string(e) + " not usable by the net");
      }
      const bool vert = TrackGraph::is_vertical(a.layer);
      const std::size_t b = g.node_id(a.layer, a.gx + (vert ? 0 : 1),
                                      a.gy + (vert ? 1 : 0));
      if (!sets.join(e, b)) {
        return fail(net_tag(nl, net) + ": routed edges form a cycle");
      }
    }
    for (std::size_t e : nr.via_edges) {
      const GNode a = g.node_at(e);
      if (!g.valid(a.layer, a.gx, a.gy) ||
          !g.valid(a.layer + 1, a.gx, a.gy) ||
          !g.passable(a.layer, a.gx, a.gy, net) ||
          !g.passable(a.layer + 1, a.gx, a.gy, net)) {
        return fail(net_tag(nl, net) + ": via at node " + std::to_string(e) +
                    " not usable by the net");
      }
      if (!sets.join(e, g.node_id(a.layer + 1, a.gx, a.gy))) {
        return fail(net_tag(nl, net) + ": routed edges form a cycle");
      }
    }

    if (!nt.routable() || (!route_clock && nt.is_clock) || !nr.routed) {
      continue;
    }

    // Each pin's access nodes are one conductor (the pin shape); together
    // with the edges they must make one component holding every pin.
    std::vector<std::size_t> pin_node(nt.pins.size());
    for (std::size_t t = 0; t < nt.pins.size(); ++t) {
      const NetPin& p = nt.pins[t];
      std::vector<GNode> access = p.is_io()
                                      ? g.io_access_nodes(p.pin)
                                      : g.pin_access_nodes(p.inst, p.pin);
      bool any = false;
      for (const GNode& a : access) {
        if (!g.valid(a.layer, a.gx, a.gy)) continue;
        const std::size_t id = g.node_id(a.layer, a.gx, a.gy);
        if (any) sets.join(pin_node[t], id);
        pin_node[t] = id;
        any = true;
      }
      if (!any) {
        return fail(net_tag(nl, net) + ": pin " + std::to_string(t) +
                    " has no access node");
      }
    }
    const int root = sets.find(sets.index(pin_node[0]));
    for (std::size_t t = 1; t < nt.pins.size(); ++t) {
      if (sets.find(sets.index(pin_node[t])) != root) {
        return fail(net_tag(nl, net) + ": pin " + std::to_string(t) +
                    " not connected to pin 0");
      }
    }
    for (std::size_t e : nr.wire_edges) {
      if (sets.find(sets.index(e)) != root) {
        return fail(net_tag(nl, net) + ": wire edge at node " +
                    std::to_string(e) + " is off the net's tree");
      }
    }
    for (std::size_t e : nr.via_edges) {
      if (sets.find(sets.index(e)) != root) {
        return fail(net_tag(nl, net) + ": via at node " + std::to_string(e) +
                    " is off the net's tree");
      }
    }
  }
  return {};
}

}  // namespace vm1
