#include "chord/chord_node.hpp"

#include <algorithm>
#include <cassert>

namespace hypersub::chord {

ChordNode::ChordNode(Id id, net::HostIndex host, std::size_t succ_list_len)
    : id_(id), host_(host), succ_cap_(succ_list_len) {
  assert(succ_list_len >= 1);
  succ_.reserve(succ_list_len);
}

NodeRef ChordNode::successor() const {
  return succ_.empty() ? NodeRef{} : succ_.front();
}

void ChordNode::set_successor(NodeRef s) {
  assert(s.valid());
  route_dirty_ = true;
  if (succ_.empty()) {
    succ_.push_back(s);
  } else if (succ_.front() != s) {
    // Keep old successors as backups; dedupe below.
    succ_.insert(succ_.begin(), s);
    std::vector<NodeRef> dedup;
    for (const auto& n : succ_) {
      if (std::find(dedup.begin(), dedup.end(), n) == dedup.end()) {
        dedup.push_back(n);
      }
    }
    succ_ = std::move(dedup);
    if (succ_.size() > succ_cap_) succ_.resize(succ_cap_);
  }
}

void ChordNode::adopt_successor_list(NodeRef succ,
                                     const std::vector<NodeRef>& rest) {
  assert(succ.valid());
  route_dirty_ = true;
  succ_.clear();
  succ_.push_back(succ);
  for (const auto& n : rest) {
    if (succ_.size() >= succ_cap_) break;
    if (n.valid() && n.id != id_ &&
        std::find(succ_.begin(), succ_.end(), n) == succ_.end()) {
      succ_.push_back(n);
    }
  }
}

void ChordNode::remove_peer(Id failed) {
  route_dirty_ = true;
  succ_.erase(std::remove_if(succ_.begin(), succ_.end(),
                             [failed](const NodeRef& n) {
                               return n.id == failed;
                             }),
              succ_.end());
  for (auto& f : fingers_) {
    if (f.valid() && f.id == failed) f = NodeRef{};
  }
  if (pred_.valid() && pred_.id == failed) pred_ = NodeRef{};
}

bool ChordNode::owns(Id key) const {
  if (!pred_.valid()) return key == id_;
  return ring::in_open_closed(key, pred_.id, id_);
}

void ChordNode::rebuild_route_table() const {
  struct Entry {
    Id dist;             // clockwise distance from id_
    std::uint32_t rank;  // position in the fingers-then-successors scan
    NodeRef ref;
  };
  static thread_local std::vector<Entry> scratch;
  scratch.clear();
  std::uint32_t rank = 0;
  const auto add = [&](const NodeRef& n) {
    if (n.valid() && n.id != id_) {
      scratch.push_back({ring::distance(id_, n.id), rank, n});
    }
    ++rank;
  };
  for (const auto& f : fingers_) add(f);
  for (const auto& s : succ_) add(s);
  std::sort(scratch.begin(), scratch.end(), [](const Entry& a, const Entry& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.rank < b.rank;
  });
  // One entry per id (equal distance == equal id): the first in scan order.
  scratch.erase(std::unique(scratch.begin(), scratch.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.dist == b.dist;
                            }),
                scratch.end());
  std::vector<NodeRef> table;  // exact size: one table lives per node
  table.reserve(scratch.size());
  for (const Entry& e : scratch) table.push_back(e.ref);
  route_table_ = std::move(table);
  route_dirty_ = false;
}

NodeRef ChordNode::closest_preceding(Id target) const {
  // Standard Chord closest_preceding_finger extended over the successor
  // list: n qualifies iff 0 < distance(id_, n) < distance(id_, target), and
  // the qualifying entry of greatest distance wins.
  if (route_dirty_) rebuild_route_table();
  const Id limit = ring::distance(id_, target);
  const auto it = std::lower_bound(
      route_table_.begin(), route_table_.end(), limit,
      [this](const NodeRef& n, Id d) { return ring::distance(id_, n.id) < d; });
  return it == route_table_.begin() ? self() : *std::prev(it);
}

std::vector<NodeRef> ChordNode::neighbors() const {
  std::vector<NodeRef> out;
  auto add = [&](const NodeRef& n) {
    if (!n.valid() || n.id == id_) return;
    for (const auto& e : out) {
      if (e.id == n.id) return;
    }
    out.push_back(n);
  };
  for (const auto& s : succ_) add(s);
  for (const auto& f : fingers_) add(f);
  add(pred_);
  return out;
}

}  // namespace hypersub::chord
