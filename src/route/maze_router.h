/// \file maze_router.h
/// Negotiated-congestion maze search over the TrackGraph.
///
/// Implements the inner engine of a PathFinder-style router: multi-source /
/// multi-target A* with present-congestion and history costs. Every edge
/// cost is an integer and the heuristic is consistent, so the search keys
/// f = g + h are exact non-decreasing integers and a bucket queue (Dial)
/// replaces a binary heap. The outer rip-up-and-reroute loop lives in
/// router.h.
#pragma once

#include <cstdint>
#include <vector>

#include "route/track_graph.h"

namespace vm1 {

/// Cost parameters for negotiated congestion. All must be non-negative
/// (MazeState, and so Router, throws std::invalid_argument otherwise): the
/// A* heuristic is consistent, and the bucket queue monotone, only when no
/// edge costs less than its wire length.
struct MazeCostOptions {
  int via_cost = 4;
  int overuse_penalty = 12;  ///< added per unit of overuse on an edge
  int history_weight = 2;
  int wire_capacity = 1;
  int via_capacity = 4;
};

/// Shared routing state: per-edge usage and history. Wire edges are
/// identified by their *from* node id (the +direction edge leaving that
/// node along the layer); vias by the lower-layer node id.
class MazeState {
 public:
  /// Throws std::invalid_argument when a cost or capacity is negative.
  MazeState(const TrackGraph& graph, const MazeCostOptions& opts);

  const TrackGraph& graph() const { return *graph_; }
  const MazeCostOptions& options() const { return opts_; }

  int wire_use(std::size_t from_node) const { return wire_use_[from_node]; }
  int via_use(std::size_t low_node) const { return via_use_[low_node]; }
  void add_wire(std::size_t from_node, int delta) {
    wire_use_[from_node] += delta;
  }
  void add_via(std::size_t low_node, int delta) {
    via_use_[low_node] += delta;
  }

  /// Cost of one more net on the wire edge leaving `from_node` along
  /// `layer`: wire length + present congestion + weighted history.
  int wire_cost(int layer, std::size_t from_node) const;
  /// Cost of one more net on the via above `low_node`.
  int via_cost(std::size_t low_node) const;

  /// Adds current overuse into the history map (end of a rip-up iteration).
  void accumulate_history();
  /// Total wire-edge overuse (the DRV proxy).
  long total_overflow() const;

  void reset_usage();

  /// Bucket-queue pops (stale entries included) over this state's lifetime.
  long expansions() const { return expansions_; }

  /// Multi-source/multi-target A* for `net`, restricted to grid bbox
  /// [bx0,bx1]x[by0,by1]. The heuristic is the grid distance to the
  /// targets' bbox (dx·1 + dy·2 DBU), a lower bound on any remaining path
  /// cost. Returns a minimum-cost node path from a source to a target
  /// (inclusive), or empty when unreachable. Among equal-cost paths the
  /// choice follows the queue's last-in-first-out order within a bucket.
  std::vector<GNode> search(const std::vector<GNode>& sources,
                            const std::vector<GNode>& targets, int net,
                            int bx0, int by0, int bx1, int by1);

 private:
  const TrackGraph* graph_;
  MazeCostOptions opts_;
  std::vector<int> wire_use_;
  std::vector<int> via_use_;
  std::vector<std::int32_t> history_;
  long expansions_ = 0;

  // Search scratch (stamped to avoid O(N) clears per search).
  std::vector<std::int64_t> dist_;
  std::vector<std::int64_t> parent_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> target_stamp_;
  std::uint32_t cur_stamp_ = 0;

  // Bucket queue: bucket b holds the entries keyed f = base + b as a
  // singly linked LIFO list through `entries_`; -1 ends a list. Every
  // bucket head is -1 between searches.
  struct QueueEntry {
    std::uint32_t node;
    std::int32_t next;
  };
  std::vector<std::int32_t> bucket_head_;
  std::vector<QueueEntry> entries_;
};

}  // namespace vm1
