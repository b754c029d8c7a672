#include "route/maze_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cells/library_builder.h"
#include "maze_oracle/maze_dijkstra.h"
#include "obs/metrics.h"
#include "place/global_placer.h"
#include "place/legalizer.h"
#include "util/rng.h"

namespace vm1 {
namespace {

/// Empty design: free routing fabric with no cells (OpenM1 so no PG
/// staples when disabled via options, and no pin blockage).
Design empty_design(int rows, int sites) {
  auto lib = std::make_unique<Library>(build_library(CellArch::kOpenM1));
  auto nl = std::make_unique<Netlist>(lib.get());
  return Design("empty", Tech::make_7nm(), std::move(lib), std::move(nl),
                rows, sites);
}

class MazeTest : public ::testing::Test {
 protected:
  MazeTest()
      : d_(empty_design(4, 40)),
        graph_(d_, no_staples()),
        state_(graph_, MazeCostOptions{}) {}

  static TrackGraphOptions no_staples() {
    TrackGraphOptions o;
    o.staple_pitch = 0;
    return o;
  }

  std::vector<GNode> search(GNode from, GNode to) {
    return state_.search({from}, {to}, /*net=*/0, 0, 0, graph_.width(),
                         graph_.height());
  }

  Design d_;
  TrackGraph graph_;
  MazeState state_;
};

TEST_F(MazeTest, StraightM1Path) {
  auto path = search({kM1, 5, 2}, {kM1, 5, 9});
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), (GNode{kM1, 5, 2}));
  EXPECT_EQ(path.back(), (GNode{kM1, 5, 9}));
  for (const GNode& n : path) {
    EXPECT_EQ(n.layer, kM1);  // no reason to leave M1
    EXPECT_EQ(n.gx, 5);
  }
  EXPECT_EQ(path.size(), 8u);
}

TEST_F(MazeTest, LShapedPathUsesViaAndM2) {
  auto path = search({kM1, 5, 2}, {kM1, 15, 2});
  ASSERT_FALSE(path.empty());
  bool used_m2 = false;
  for (const GNode& n : path) used_m2 |= (n.layer == kM2);
  EXPECT_TRUE(used_m2);  // horizontal motion requires a horizontal layer
}

TEST_F(MazeTest, SourceEqualsTargetIsTrivial) {
  auto path = search({kM1, 7, 3}, {kM1, 7, 3});
  ASSERT_EQ(path.size(), 1u);
}

TEST_F(MazeTest, MultiSourceMultiTargetPicksNearest) {
  std::vector<GNode> sources = {{kM1, 2, 2}, {kM1, 30, 2}};
  std::vector<GNode> targets = {{kM1, 31, 5}, {kM1, 20, 12}};
  auto path = state_.search(sources, targets, 0, 0, 0, graph_.width(),
                            graph_.height());
  ASSERT_FALSE(path.empty());
  // Nearest pairing is (30,2) -> (31,5).
  EXPECT_EQ(path.front().gx, 30);
  EXPECT_EQ(path.back().gx, 31);
}

TEST_F(MazeTest, BboxRestrictsSearch) {
  // Target outside the bbox: unreachable.
  auto path = state_.search({{kM1, 5, 2}}, {{kM1, 5, 9}}, 0, 0, 0,
                            graph_.width(), 5);
  EXPECT_TRUE(path.empty());
}

TEST_F(MazeTest, CongestionDivertsSecondNet) {
  // Saturate the cheap M1 column with net 1, then route net 2 in parallel:
  // it should avoid the used edges (capacity 1).
  auto p1 = search({kM1, 10, 2}, {kM1, 10, 10});
  ASSERT_FALSE(p1.empty());
  for (std::size_t i = 0; i + 1 < p1.size(); ++i) {
    int fy = std::min(p1[i].gy, p1[i + 1].gy);
    state_.add_wire(graph_.node_id(kM1, 10, fy), 1);
  }
  auto p2 = state_.search({{kM1, 10, 2}}, {{kM1, 10, 10}}, /*net=*/2, 0, 0,
                          graph_.width(), graph_.height());
  ASSERT_FALSE(p2.empty());
  bool left_column = false;
  for (const GNode& n : p2) left_column |= (n.gx != 10 || n.layer != kM1);
  EXPECT_TRUE(left_column) << "second net should detour off the used column";
}

TEST_F(MazeTest, OverflowTrackingAndHistory) {
  std::size_t edge = graph_.node_id(kM1, 4, 4);
  EXPECT_EQ(state_.total_overflow(), 0);
  const int before = state_.wire_cost(kM1, edge);
  state_.add_wire(edge, 2);  // capacity 1 -> overflow 1
  EXPECT_EQ(state_.total_overflow(), 1);
  EXPECT_GT(state_.wire_use(edge), state_.options().wire_capacity);
  state_.accumulate_history();
  state_.reset_usage();
  EXPECT_EQ(state_.total_overflow(), 0);
  // History outlives the usage: one unit of overuse, weighted.
  EXPECT_EQ(state_.wire_cost(kM1, edge),
            before + state_.options().history_weight);
}

TEST_F(MazeTest, ViaCostDiscouragesLayerHopping) {
  // A short vertical run should stay on M1 rather than hop M1->M3.
  auto path = search({kM1, 8, 3}, {kM1, 8, 6});
  for (const GNode& n : path) EXPECT_EQ(n.layer, kM1);
}

TEST_F(MazeTest, AStarPopsOnlyTheStraightPathOnOpenFabric) {
  // f = g + h stays at h(source) along the straight M1 run and rises off
  // it, so the search pops exactly the path's nodes.
  const long before = state_.expansions();
  auto path = search({kM1, 5, 2}, {kM1, 5, 9});
  ASSERT_EQ(path.size(), 8u);
  EXPECT_EQ(state_.expansions() - before, 8);
}

TEST_F(MazeTest, SearchCountsSearchesPopsAndPushes) {
  obs::Counter& searches = obs::counter("route.maze_searches");
  obs::Counter& pops = obs::counter("route.maze_expansions");
  obs::Counter& pushes = obs::counter("route.heap_pushes");
  const long s0 = searches.value(), e0 = pops.value(), p0 = pushes.value();
  auto path = search({kM1, 5, 2}, {kM1, 15, 9});
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(searches.value() - s0, 1);
  const long popped = pops.value() - e0;
  EXPECT_GE(popped, static_cast<long>(path.size()));
  // Every pop, stale or not, takes an entry some push put in the queue.
  EXPECT_GE(pushes.value() - p0, popped);
}

TEST_F(MazeTest, NoValidTargetIsUnreachable) {
  auto path = state_.search({{kM1, 5, 2}}, {{kM3, 5, 2}}, 0, 0, 0,
                            graph_.width(), graph_.height());
  EXPECT_TRUE(path.empty());  // M3 lives on even gx only
}

/// Random valid node on any layer.
GNode random_node(const TrackGraph& g, Rng& rng) {
  for (;;) {
    GNode n{static_cast<int>(rng.uniform(kNumRouteLayers)),
            static_cast<int>(rng.uniform(g.width() + 1)),
            static_cast<int>(rng.uniform(g.height() + 1))};
    if (g.valid(n.layer, n.gx, n.gy)) return n;
  }
}

/// Adds random usage (0..3 nets) to about one edge in eight.
void scatter_usage(MazeState& st, Rng& rng) {
  const std::size_t n = st.graph().num_nodes();
  for (std::size_t k = 0; k < n / 8; ++k) {
    st.add_wire(rng.uniform(n), static_cast<int>(rng.uniform(4)));
    st.add_via(rng.uniform(n), static_cast<int>(rng.uniform(6)));
  }
}

// A* must return a minimum-cost path: on random usage/history states and
// random non-negative cost options, over placed designs of every
// architecture, its path costs exactly what the Dijkstra oracle's does.
// The paths themselves may differ on ties.
TEST(MazeOptimality, AStarCostMatchesDijkstraOracle) {
  Rng rng(20260417);
  int compared = 0, unreachable = 0;
  for (CellArch arch : {CellArch::kClosedM1, CellArch::kOpenM1,
                        CellArch::kConventional12T}) {
    DesignOptions dopts;
    dopts.utilization = 0.8;
    Design d = make_design("tiny", arch, dopts);
    global_place(d);
    legalize(d);
    TrackGraph graph(d);
    const Netlist& nl = d.netlist();
    for (int trial = 0; trial < 6; ++trial) {
      MazeCostOptions opts;
      opts.via_cost = static_cast<int>(rng.uniform(9));  // 0 allowed
      opts.overuse_penalty = static_cast<int>(rng.uniform(25));
      opts.history_weight = static_cast<int>(rng.uniform(5));
      opts.wire_capacity = static_cast<int>(rng.uniform(3));
      opts.via_capacity = static_cast<int>(rng.uniform(5));
      MazeState st(graph, opts);
      scatter_usage(st, rng);
      st.accumulate_history();
      st.reset_usage();
      scatter_usage(st, rng);
      if (trial % 2) st.accumulate_history();

      for (int q = 0; q < 40; ++q) {
        // Half the queries join two pins of a real net (owned access
        // nodes), half join random free nodes.
        int net = static_cast<int>(rng.uniform(nl.num_nets()));
        std::vector<GNode> sources, targets;
        const Net& nt = nl.net(net);
        if (q % 2 == 0 && nt.routable()) {
          auto access = [&](const NetPin& p) {
            return p.is_io() ? graph.io_access_nodes(p.pin)
                             : graph.pin_access_nodes(p.inst, p.pin);
          };
          sources = access(nt.pins[0]);
          targets = access(nt.pins[1 + rng.uniform(nt.pins.size() - 1)]);
        } else {
          for (int k = 0, m = 1 + static_cast<int>(rng.uniform(3)); k < m;
               ++k) {
            sources.push_back(random_node(graph, rng));
            targets.push_back(random_node(graph, rng));
          }
        }
        int bx0 = 0, by0 = 0, bx1 = graph.width(), by1 = graph.height();
        if (rng.chance(0.5)) {
          bx0 = static_cast<int>(rng.uniform(graph.width() / 2 + 1));
          by0 = static_cast<int>(rng.uniform(graph.height() / 2 + 1));
          bx1 = bx0 + static_cast<int>(rng.uniform(graph.width() - bx0 + 1));
          by1 = by0 + static_cast<int>(rng.uniform(graph.height() - by0 + 1));
        }

        auto fast = st.search(sources, targets, net, bx0, by0, bx1, by1);
        auto slow = maze_oracle::dijkstra_search(st, sources, targets, net,
                                                 bx0, by0, bx1, by1);
        ASSERT_EQ(fast.empty(), slow.empty()) << to_string(arch) << " q" << q;
        if (fast.empty()) {
          ++unreachable;
          continue;
        }
        EXPECT_NE(std::find(sources.begin(), sources.end(), fast.front()),
                  sources.end());
        EXPECT_NE(std::find(targets.begin(), targets.end(), fast.back()),
                  targets.end());
        // A source outside the bbox is never expanded; it can only be a
        // one-node path by being a target too.
        for (std::size_t i = 0; fast.size() > 1 && i < fast.size(); ++i) {
          const GNode& p = fast[i];
          EXPECT_TRUE(p.gx >= bx0 && p.gx <= bx1 && p.gy >= by0 &&
                      p.gy <= by1);
        }
        const std::int64_t cost = maze_oracle::path_cost(st, fast, net);
        ASSERT_GE(cost, 0) << "A* returned a path with an illegal step";
        EXPECT_EQ(cost, maze_oracle::path_cost(st, slow, net))
            << to_string(arch) << " trial " << trial << " q" << q;
        ++compared;
      }
    }
  }
  // The sample must exercise both outcomes.
  EXPECT_GT(compared, 300);
  EXPECT_GT(unreachable, 0);
}

}  // namespace
}  // namespace vm1
