/// \file maze_dijkstra.h
/// Test-only optimality oracle for MazeState::search: a heuristic-free
/// Dijkstra on a binary heap over the same track graph, edges and costs.
///
/// This was the router's search before it became A* on a bucket queue. It
/// is kept out of the openvm1 library (CI fails if its symbols show up
/// there) and linked only by the test binaries that compile test_maze.cpp.
/// Both searches return a minimum-cost path; on ties they may return
/// different paths, so tests compare path_cost(), not paths.
#pragma once

#include <cstdint>
#include <vector>

#include "route/maze_router.h"

namespace vm1::maze_oracle {

/// Multi-source/multi-target Dijkstra for `net`, restricted to grid bbox
/// [bx0,bx1]x[by0,by1], priced by `st`'s current wire/via costs. Returns the
/// node path from a source to a target (inclusive), or empty when
/// unreachable.
std::vector<GNode> dijkstra_search(const MazeState& st,
                                   const std::vector<GNode>& sources,
                                   const std::vector<GNode>& targets, int net,
                                   int bx0, int by0, int bx1, int by1);

/// Sum of `st`'s edge costs along `path`, or -1 when two consecutive nodes
/// are not joined by a wire edge or via that `net` may use.
std::int64_t path_cost(const MazeState& st, const std::vector<GNode>& path,
                       int net);

}  // namespace vm1::maze_oracle
