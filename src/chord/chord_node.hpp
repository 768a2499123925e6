#pragma once
// Per-node Chord routing state: predecessor, successor list, finger table.
//
// ChordNode holds pure state plus the local routing decisions (who owns a
// key, which neighbor is the best next hop). All message passing lives in
// ChordNet; keeping the node passive makes the routing logic unit-testable
// without a network.

#include <array>
#include <cstddef>
#include <vector>

#include "common/ids.hpp"
#include "net/topology.hpp"
#include "overlay/peer.hpp"

namespace hypersub::chord {

/// Reference to a remote node: ring id + simulator host index.
/// (The overlay-neutral Peer type; Pastry uses the same one.)
using NodeRef = overlay::Peer;

/// Routing state of one Chord node.
class ChordNode {
 public:
  ChordNode(Id id, net::HostIndex host, std::size_t succ_list_len);

  Id id() const noexcept { return id_; }
  net::HostIndex host() const noexcept { return host_; }
  NodeRef self() const noexcept { return NodeRef{id_, host_}; }

  // -- successor list ------------------------------------------------------

  /// Primary successor (first entry of the list); invalid if list empty.
  NodeRef successor() const;
  const std::vector<NodeRef>& successor_list() const noexcept { return succ_; }
  std::size_t successor_list_capacity() const noexcept { return succ_cap_; }

  /// Replace the primary successor, keeping the rest of the list.
  void set_successor(NodeRef s);
  /// Adopt `succ` as primary and `rest` (their successor list) shifted in.
  void adopt_successor_list(NodeRef succ, const std::vector<NodeRef>& rest);
  /// Drop a failed node from the successor list (and fingers).
  void remove_peer(Id failed);

  // -- predecessor ---------------------------------------------------------

  NodeRef predecessor() const noexcept { return pred_; }
  void set_predecessor(NodeRef p) { pred_ = p; }
  void clear_predecessor() { pred_ = NodeRef{}; }

  /// Forget everything (successors, fingers, predecessor) — a rejoining
  /// node must not route through its previous life's stale view.
  void reset_routing_state() {
    succ_.clear();
    pred_ = NodeRef{};
    fingers_.fill(NodeRef{});
    route_dirty_ = true;
  }

  // -- fingers -------------------------------------------------------------

  const NodeRef& finger(int i) const { return fingers_[std::size_t(i)]; }
  void set_finger(int i, NodeRef f) {
    NodeRef& slot = fingers_[std::size_t(i)];
    if (slot == f) return;
    slot = f;
    route_dirty_ = true;
  }

  // -- routing decisions ---------------------------------------------------

  /// True if this node is the successor of `key` given its current
  /// predecessor knowledge: key in (pred, self]. With no predecessor the
  /// node cannot claim ownership (returns key == id()).
  bool owns(Id key) const;

  /// The routing-table neighbor (finger or successor) with the greatest
  /// clockwise progress from this node that stays strictly inside
  /// (id, target) — Alg. 5 line 20. Returns self() when the table holds no
  /// such node. Of two entries with one id, the one a scan over fingers
  /// 0..63 and then the successor list meets first is returned.
  /// O(log n) over a sorted table rebuilt lazily after a mutation; not
  /// thread-safe (the simulation thread alone routes).
  NodeRef closest_preceding(Id target) const;

  /// All distinct valid neighbors (fingers + successor list + predecessor);
  /// the load balancer's probe set.
  std::vector<NodeRef> neighbors() const;

 private:
  Id id_;
  net::HostIndex host_;
  std::size_t succ_cap_;
  std::vector<NodeRef> succ_;
  NodeRef pred_;
  std::array<NodeRef, kIdBits> fingers_{};

  void rebuild_route_table() const;
  /// closest_preceding()'s lookup table: the distinct valid fingers and
  /// successors other than self, ascending by clockwise distance from id_.
  /// Every mutator of fingers_ or succ_ marks it dirty.
  mutable std::vector<NodeRef> route_table_;
  mutable bool route_dirty_ = true;
};

}  // namespace hypersub::chord
