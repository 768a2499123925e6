#pragma once
// Arena-backed SoA storage for stored subscriptions.
//
// A zone repository used to keep a std::vector<StoredSub>, where every
// entry owned two heap-allocated interval vectors (the full-space range
// and its subscheme projection). At rendezvous-zone scale that layout is
// two pointer chases per scanned subscription and two allocator round
// trips per install — the dominant memory cost of a million-subscription
// run.
//
// SubArena stores the same data as three parallel structures:
//   * a slot table (owner id + offsets/dim counts),
//   * one contiguous Interval pool for the full-space ranges,
//   * a second contiguous pool for the projected rects,
// so match() streams cache lines instead of chasing pointers, and the
// per-subscription allocation count drops to zero amortized. Slots are
// stable 32-bit refs handed back on add() and recycled through a free
// list; pool space is reused in place when the recycled slot's dimension
// counts match the incoming subscription (within one zone they always do —
// full dims are the scheme's, projected dims the subscheme's).
//
// The full ranges and the projected rects live in *separate* pools on
// purpose: the exact-match hot loop touches only full-space intervals,
// while summary recomputation touches only projections; mixing them would
// halve the useful bytes per cache line in both loops.
//
// StoredSub remains the materialized exchange format (wire format of
// migrations, return type of removals/extractions); the arena converts at
// the edges.

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/hyperrect.hpp"
#include "core/subid.hpp"
#include "pubsub/subscription.hpp"

namespace hypersub::core {

/// A real subscription stored at its covering zone.
struct StoredSub {
  SubId owner;               ///< kSubscriber: subscriber node id + iid
  pubsub::Subscription sub;  ///< full-space range (exact matching)
  HyperRect projected;       ///< range projected onto the subscheme
};

class SubArena {
 public:
  using Ref = std::uint32_t;
  static constexpr Ref kNullRef = 0xffffffffu;

  /// Store a subscription; returns its stable ref.
  Ref add(const SubId& owner, std::span<const Interval> full,
          std::span<const Interval> projected) {
    Ref r;
    if (!free_.empty() && slot_fits(free_.back(), full, projected)) {
      r = free_.back();
      free_.pop_back();
      Slot& s = slots_[r];
      s.owner = owner;
      std::copy(full.begin(), full.end(), full_pool_.begin() + s.full_off);
      std::copy(projected.begin(), projected.end(),
                proj_pool_.begin() + s.proj_off);
      s.live = true;
    } else {
      r = Ref(slots_.size());
      Slot s;
      s.owner = owner;
      s.full_off = std::uint32_t(full_pool_.size());
      s.full_dims = std::uint16_t(full.size());
      s.proj_off = std::uint32_t(proj_pool_.size());
      s.proj_dims = std::uint16_t(projected.size());
      s.live = true;
      full_pool_.insert(full_pool_.end(), full.begin(), full.end());
      proj_pool_.insert(proj_pool_.end(), projected.begin(), projected.end());
      slots_.push_back(s);
    }
    ++live_;
    return r;
  }

  Ref add(const StoredSub& s) {
    return add(s.owner, s.sub.range().dims(), s.projected.dims());
  }

  /// Free a ref; its slot (and, dims permitting, its pool space) is
  /// recycled by a later add().
  void remove(Ref r) {
    assert(slots_[r].live);
    slots_[r].live = false;
    free_.push_back(r);
    --live_;
  }

  std::size_t size() const noexcept { return live_; }
  bool empty() const noexcept { return live_ == 0; }

  /// Visit every live ref, in ref order.
  template <typename F>
  void for_each(F&& fn) const {
    for (Ref r = 0; r < slots_.size(); ++r) {
      if (slots_[r].live) fn(r);
    }
  }

  const SubId& owner(Ref r) const {
    assert(slots_[r].live);
    return slots_[r].owner;
  }

  std::span<const Interval> full(Ref r) const {
    const Slot& s = slots_[r];
    return {full_pool_.data() + s.full_off, s.full_dims};
  }

  std::span<const Interval> projected(Ref r) const {
    const Slot& s = slots_[r];
    return {proj_pool_.data() + s.proj_off, s.proj_dims};
  }

  /// Exact containment of `p` in the full-space range — the match() hot
  /// path; reads only full-pool cache lines.
  bool full_contains(Ref r, const Point& p) const {
    const Slot& s = slots_[r];
    assert(p.size() == s.full_dims);
    const Interval* iv = full_pool_.data() + s.full_off;
    for (std::uint16_t i = 0; i < s.full_dims; ++i) {
      if (!iv[i].contains(p[i])) return false;
    }
    return true;
  }

  /// Full containment of another range in r's full-space range
  /// (interval-wise, dimension counts must match) — the covering test
  /// CoverSet quenching runs at registration; allocation-free like
  /// full_contains.
  bool full_covers(Ref r, std::span<const Interval> inner) const {
    const Slot& s = slots_[r];
    assert(inner.size() == s.full_dims);
    const Interval* iv = full_pool_.data() + s.full_off;
    for (std::uint16_t i = 0; i < s.full_dims; ++i) {
      if (iv[i].lo > inner[i].lo || iv[i].hi < inner[i].hi) return false;
    }
    return true;
  }

  HyperRect full_rect(Ref r) const {
    const auto d = full(r);
    return HyperRect(std::vector<Interval>(d.begin(), d.end()));
  }

  HyperRect projected_rect(Ref r) const {
    const auto d = projected(r);
    return HyperRect(std::vector<Interval>(d.begin(), d.end()));
  }

  /// Materialize the heap-owning exchange form.
  StoredSub materialize(Ref r) const {
    return StoredSub{owner(r), pubsub::Subscription(full_rect(r)),
                     projected_rect(r)};
  }

  /// Flat-array footprint of the SoA pools (capacity, not size — this is
  /// what the allocator actually holds).
  std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot) +
           (full_pool_.capacity() + proj_pool_.capacity()) * sizeof(Interval) +
           free_.capacity() * sizeof(Ref);
  }

 private:
  struct Slot {
    SubId owner;
    std::uint32_t full_off = 0;
    std::uint32_t proj_off = 0;
    std::uint16_t full_dims = 0;
    std::uint16_t proj_dims = 0;
    bool live = false;
  };

  bool slot_fits(Ref r, std::span<const Interval> full,
                 std::span<const Interval> projected) const {
    const Slot& s = slots_[r];
    return s.full_dims == full.size() && s.proj_dims == projected.size();
  }

  std::vector<Slot> slots_;
  std::vector<Interval> full_pool_;  ///< match() streams this
  std::vector<Interval> proj_pool_;  ///< summary/piece math streams this
  std::vector<Ref> free_;
  std::size_t live_ = 0;
};

}  // namespace hypersub::core
