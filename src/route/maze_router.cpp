#include "route/maze_router.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/metrics.h"

namespace vm1 {

MazeState::MazeState(const TrackGraph& graph, const MazeCostOptions& opts)
    : graph_(&graph), opts_(opts) {
  if (opts.via_cost < 0 || opts.overuse_penalty < 0 ||
      opts.history_weight < 0 || opts.wire_capacity < 0 ||
      opts.via_capacity < 0) {
    throw std::invalid_argument(
        "MazeCostOptions: costs and capacities must be non-negative");
  }
  std::size_t n = graph.num_nodes();
  wire_use_.assign(n, 0);
  via_use_.assign(n, 0);
  history_.assign(n * 2, 0);  // [0,n): wire history, [n,2n): via history
  dist_.assign(n, 0);
  parent_.assign(n, -1);
  stamp_.assign(n, 0);
  target_stamp_.assign(n, 0);
}

void MazeState::accumulate_history() {
  std::size_t n = graph_->num_nodes();
  for (std::size_t e = 0; e < n; ++e) {
    int over = wire_use_[e] - opts_.wire_capacity;
    if (over > 0) history_[e] += over;
    int vover = via_use_[e] - opts_.via_capacity;
    if (vover > 0) history_[n + e] += vover;
  }
}

long MazeState::total_overflow() const {
  long total = 0;
  for (int u : wire_use_) total += std::max(0, u - opts_.wire_capacity);
  return total;
}

void MazeState::reset_usage() {
  std::fill(wire_use_.begin(), wire_use_.end(), 0);
  std::fill(via_use_.begin(), via_use_.end(), 0);
}

int MazeState::wire_cost(int layer, std::size_t from_node) const {
  int over = wire_use_[from_node] - opts_.wire_capacity + 1;
  int congestion = over > 0 ? opts_.overuse_penalty * over : 0;
  return static_cast<int>(TrackGraph::edge_len_dbu(layer)) + congestion +
         opts_.history_weight * history_[from_node];
}

int MazeState::via_cost(std::size_t low_node) const {
  int over = via_use_[low_node] - opts_.via_capacity + 1;
  int congestion = over > 0 ? opts_.overuse_penalty * over : 0;
  std::size_t n = graph_->num_nodes();
  return opts_.via_cost + congestion +
         opts_.history_weight * history_[n + low_node];
}

std::vector<GNode> MazeState::search(const std::vector<GNode>& sources,
                                     const std::vector<GNode>& targets,
                                     int net, int bx0, int by0, int bx1,
                                     int by1) {
  const TrackGraph& g = *graph_;
  ++cur_stamp_;

  // Heuristic: grid distance to the targets' bbox, priced at the cheapest
  // wire step per axis (an x step costs >= 1, a y step >= 2, a via >= 0),
  // so h never overestimates and drops by at most an edge's cost.
  int tx0 = std::numeric_limits<int>::max(), ty0 = tx0;
  int tx1 = std::numeric_limits<int>::min(), ty1 = tx1;
  for (const GNode& t : targets) {
    if (!g.valid(t.layer, t.gx, t.gy)) continue;
    target_stamp_[g.node_id(t.layer, t.gx, t.gy)] = cur_stamp_;
    tx0 = std::min(tx0, t.gx);
    tx1 = std::max(tx1, t.gx);
    ty0 = std::min(ty0, t.gy);
    ty1 = std::max(ty1, t.gy);
  }
  constexpr std::int64_t kStepX = TrackGraph::edge_len_dbu(kM2);
  constexpr std::int64_t kStepY = TrackGraph::edge_len_dbu(kM1);
  auto h = [&](int gx, int gy) -> std::int64_t {
    int dx = gx < tx0 ? tx0 - gx : (gx > tx1 ? gx - tx1 : 0);
    int dy = gy < ty0 ? ty0 - gy : (gy > ty1 ? gy - ty1 : 0);
    return kStepX * dx + kStepY * dy;
  };

  // Bucket b of the queue holds key f = base + b. Keys never fall below
  // the smallest source key, because a consistent heuristic makes f
  // non-decreasing along every edge. Without a valid target nothing is
  // pushed and the search fails at once.
  std::vector<std::size_t> live_sources;
  std::int64_t base = std::numeric_limits<std::int64_t>::max();
  if (tx0 <= tx1) {
    for (const GNode& s : sources) {
      if (!g.valid(s.layer, s.gx, s.gy)) continue;
      if (!g.passable(s.layer, s.gx, s.gy, net)) continue;
      live_sources.push_back(g.node_id(s.layer, s.gx, s.gy));
      base = std::min(base, h(s.gx, s.gy));
    }
  }
  std::size_t used = 0;    // bucket slots touched this search
  std::size_t cursor = 0;  // bucket being popped
  auto push = [&](std::size_t id, std::int64_t key) {
    // A key behind the cursor would never be popped and would leave a
    // dangling bucket head for the next search.
    if (key < base + static_cast<std::int64_t>(cursor)) {
      throw std::logic_error("MazeState::search: A* key fell behind the queue");
    }
    std::size_t b = static_cast<std::size_t>(key - base);
    if (b >= bucket_head_.size()) bucket_head_.resize(b + 1, -1);
    used = std::max(used, b + 1);
    entries_.push_back({static_cast<std::uint32_t>(id), bucket_head_[b]});
    bucket_head_[b] = static_cast<std::int32_t>(entries_.size() - 1);
  };

  auto relax = [&](std::size_t id, int gx, int gy, std::int64_t cost,
                   std::int64_t par) {
    if (stamp_[id] == cur_stamp_ && dist_[id] <= cost) return;
    stamp_[id] = cur_stamp_;
    dist_[id] = cost;
    parent_[id] = par;
    push(id, cost + h(gx, gy));
  };

  for (std::size_t id : live_sources) {
    GNode s = g.node_at(id);
    relax(id, s.gx, s.gy, 0, -1);
  }

  std::size_t found = static_cast<std::size_t>(-1);
  long popped = 0;
  while (cursor < used) {
    std::int32_t e = bucket_head_[cursor];
    if (e < 0) {
      ++cursor;
      continue;
    }
    bucket_head_[cursor] = entries_[e].next;
    ++popped;
    const std::size_t id = entries_[e].node;
    const GNode nd = g.node_at(id);
    const std::int64_t cost = dist_[id];
    // A node re-pushed at a lower cost leaves its old entry behind.
    if (cost + h(nd.gx, nd.gy) != base + static_cast<std::int64_t>(cursor)) {
      continue;
    }
    if (target_stamp_[id] == cur_stamp_) {
      found = id;
      break;
    }

    // Wires and vias both stay inside the bbox.
    if (nd.gx < bx0 || nd.gx > bx1 || nd.gy < by0 || nd.gy > by1) continue;

    // One step along the layer to (nx, ny); the edge is identified by its
    // low/left endpoint.
    auto try_wire = [&](int nx, int ny) {
      if (nx < bx0 || nx > bx1 || ny < by0 || ny > by1) return;
      int fx = std::min(nd.gx, nx);
      int fy = std::min(nd.gy, ny);
      if (!g.edge_allowed(nd.layer, fx, fy, net)) return;
      relax(g.node_id(nd.layer, nx, ny), nx, ny,
            cost + wire_cost(nd.layer, g.node_id(nd.layer, fx, fy)),
            static_cast<std::int64_t>(id));
    };

    if (TrackGraph::is_vertical(nd.layer)) {
      if (nd.gy < g.height()) try_wire(nd.gx, nd.gy + 1);
      if (nd.gy > 0) try_wire(nd.gx, nd.gy - 1);
    } else {
      if (nd.gx < g.width()) try_wire(nd.gx + 1, nd.gy);
      if (nd.gx > 0) try_wire(nd.gx - 1, nd.gy);
    }

    // Vias: between layer l and l+1 at this (gx, gy).
    for (int dl : {+1, -1}) {
      int nl = nd.layer + dl;
      if (nl < 0 || nl >= kNumRouteLayers) continue;
      if (!g.valid(nl, nd.gx, nd.gy)) continue;
      if (!g.passable(nl, nd.gx, nd.gy, net)) continue;
      int low_layer = std::min(nd.layer, nl);
      std::size_t low_id = g.node_id(low_layer, nd.gx, nd.gy);
      relax(g.node_id(nl, nd.gx, nd.gy), nd.gx, nd.gy,
            cost + via_cost(low_id), static_cast<std::int64_t>(id));
    }
  }

  // Leave every bucket empty for the next search.
  if (cursor < used) {
    std::fill(bucket_head_.begin() + static_cast<std::ptrdiff_t>(cursor),
              bucket_head_.begin() + static_cast<std::ptrdiff_t>(used), -1);
  }
  const long pushes = static_cast<long>(entries_.size());
  entries_.clear();
  expansions_ += popped;

  // One bulk add per search keeps the pop loop metric-free.
  static obs::Counter& searches_metric = obs::counter("route.maze_searches");
  static obs::Counter& expansions_metric =
      obs::counter("route.maze_expansions");
  static obs::Counter& pushes_metric = obs::counter("route.heap_pushes");
  searches_metric.add();
  expansions_metric.add(popped);
  pushes_metric.add(pushes);

  std::vector<GNode> path;
  if (found == static_cast<std::size_t>(-1)) return path;
  std::int64_t cur = static_cast<std::int64_t>(found);
  while (cur >= 0) {
    path.push_back(g.node_at(static_cast<std::size_t>(cur)));
    cur = parent_[static_cast<std::size_t>(cur)];
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace vm1
