#include "maze_oracle/maze_dijkstra.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <queue>
#include <utility>

namespace vm1::maze_oracle {

std::vector<GNode> dijkstra_search(const MazeState& st,
                                   const std::vector<GNode>& sources,
                                   const std::vector<GNode>& targets, int net,
                                   int bx0, int by0, int bx1, int by1) {
  const TrackGraph& g = st.graph();
  const std::size_t n = g.num_nodes();
  std::vector<std::int64_t> dist(n, -1);
  std::vector<std::int64_t> parent(n, -1);
  std::vector<bool> is_target(n, false);
  for (const GNode& t : targets) {
    if (g.valid(t.layer, t.gx, t.gy)) {
      is_target[g.node_id(t.layer, t.gx, t.gy)] = true;
    }
  }

  using QE = std::pair<std::int64_t, std::size_t>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
  auto relax = [&](std::size_t id, std::int64_t cost, std::int64_t par) {
    if (dist[id] >= 0 && dist[id] <= cost) return;
    dist[id] = cost;
    parent[id] = par;
    pq.push({cost, id});
  };

  for (const GNode& s : sources) {
    if (!g.valid(s.layer, s.gx, s.gy)) continue;
    if (!g.passable(s.layer, s.gx, s.gy, net)) continue;
    relax(g.node_id(s.layer, s.gx, s.gy), 0, -1);
  }

  auto inside = [&](int gx, int gy) {
    return gx >= bx0 && gx <= bx1 && gy >= by0 && gy <= by1;
  };
  std::size_t found = static_cast<std::size_t>(-1);
  while (!pq.empty()) {
    auto [cost, id] = pq.top();
    pq.pop();
    if (cost > dist[id]) continue;
    if (is_target[id]) {
      found = id;
      break;
    }
    const GNode nd = g.node_at(id);
    if (!inside(nd.gx, nd.gy)) continue;

    auto try_wire = [&](int nx, int ny) {
      if (!inside(nx, ny)) return;
      int fx = std::min(nd.gx, nx);
      int fy = std::min(nd.gy, ny);
      if (!g.edge_allowed(nd.layer, fx, fy, net)) return;
      relax(g.node_id(nd.layer, nx, ny),
            cost + st.wire_cost(nd.layer, g.node_id(nd.layer, fx, fy)),
            static_cast<std::int64_t>(id));
    };
    if (TrackGraph::is_vertical(nd.layer)) {
      if (nd.gy < g.height()) try_wire(nd.gx, nd.gy + 1);
      if (nd.gy > 0) try_wire(nd.gx, nd.gy - 1);
    } else {
      if (nd.gx < g.width()) try_wire(nd.gx + 1, nd.gy);
      if (nd.gx > 0) try_wire(nd.gx - 1, nd.gy);
    }
    for (int dl : {+1, -1}) {
      int nl = nd.layer + dl;
      if (nl < 0 || nl >= kNumRouteLayers) continue;
      if (!g.valid(nl, nd.gx, nd.gy)) continue;
      if (!g.passable(nl, nd.gx, nd.gy, net)) continue;
      std::size_t low_id = g.node_id(std::min(nd.layer, nl), nd.gx, nd.gy);
      relax(g.node_id(nl, nd.gx, nd.gy), cost + st.via_cost(low_id),
            static_cast<std::int64_t>(id));
    }
  }

  std::vector<GNode> path;
  if (found == static_cast<std::size_t>(-1)) return path;
  for (std::int64_t cur = static_cast<std::int64_t>(found); cur >= 0;
       cur = parent[static_cast<std::size_t>(cur)]) {
    path.push_back(g.node_at(static_cast<std::size_t>(cur)));
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::int64_t path_cost(const MazeState& st, const std::vector<GNode>& path,
                       int net) {
  const TrackGraph& g = st.graph();
  std::int64_t total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const GNode& a = path[i];
    const GNode& b = path[i + 1];
    const int dx = std::abs(a.gx - b.gx);
    const int dy = std::abs(a.gy - b.gy);
    if (a.layer == b.layer) {
      const bool vert = TrackGraph::is_vertical(a.layer);
      if (dx + dy != 1 || (vert ? dx : dy) != 0) return -1;
      int fx = std::min(a.gx, b.gx);
      int fy = std::min(a.gy, b.gy);
      if (!g.edge_allowed(a.layer, fx, fy, net)) return -1;
      total += st.wire_cost(a.layer, g.node_id(a.layer, fx, fy));
    } else {
      if (dx + dy != 0 || std::abs(a.layer - b.layer) != 1) return -1;
      if (!g.valid(a.layer, a.gx, a.gy) || !g.valid(b.layer, b.gx, b.gy) ||
          !g.passable(a.layer, a.gx, a.gy, net) ||
          !g.passable(b.layer, b.gx, b.gy, net)) {
        return -1;
      }
      total += st.via_cost(
          g.node_id(std::min(a.layer, b.layer), a.gx, a.gy));
    }
  }
  return total;
}

}  // namespace vm1::maze_oracle
