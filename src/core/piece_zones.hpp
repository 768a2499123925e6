#pragma once
// Piece-only zones, one compact record each.
//
// At saturation scale most hosted zones store nothing but the summary-filter
// piece their parent installed: no subscriptions, no buckets. Such a zone is
// kept as a PieceZone record instead of a ZoneState. Nothing else needs
// storing: its summary is its piece, and the piece it passes to a child is
// piece ∩ extent(child) — exact, because zone extents nest along a parent
// path. The rule is local to one zone: a record becomes a ZoneState when a
// subscription or a bucket lands on it, and goes back to a record when it
// is piece-only again. At any address at most one of the two exists.
//
// Record invariants (audited by check_zone_invariants): level >= 1, the
// piece is non-empty and inside the zone's extent, both keys match the
// address, and no materialized primary ZoneState shares the address.

#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "common/hyperrect.hpp"
#include "core/flat_map.hpp"
#include "core/zone_state.hpp"

namespace hypersub::core {

struct PieceZone {
  ZoneAddr addr;
  Id key = 0;         ///< rotated key of addr.zone
  Id parent_key = 0;  ///< rotated key of the parent zone
  HyperRect piece;    ///< installed by the parent; never empty in a set
};

/// Canonical record order for images and re-pushes: (scheme, subscheme,
/// level, code) is unique per record, so it does not depend on slot history.
inline bool canonical_order(const PieceZone& a, const PieceZone& b) {
  return std::tie(a.addr.scheme, a.addr.subscheme, a.addr.zone.level,
                  a.addr.zone.code) < std::tie(b.addr.scheme,
                                               b.addr.subscheme,
                                               b.addr.zone.level,
                                               b.addr.zone.code);
}

/// Per-node store of PieceZone records with a rotated-key index. A zone key
/// aliases its rightmost descendants, so one key can address several
/// records (all on one rightmost path); each key heads a singly linked list
/// threaded through the slots.
class PieceZoneSet {
 public:
  PieceZone* find(const ZoneAddr& addr, Id key);
  const PieceZone* find(const ZoneAddr& addr, Id key) const;

  /// Add a record; none may exist at z.addr yet, and z.piece is non-empty.
  void insert(PieceZone z);
  /// Remove and return the record at `addr` (nullopt if there is none).
  std::optional<PieceZone> take(const ZoneAddr& addr, Id key);

  /// Visit every record indexed under `key` as fn(record).
  template <typename F>
  void for_each_at_key(Id key, F&& fn) const {
    const std::uint32_t* head = index_.find(key);
    if (head == nullptr) return;
    for (std::uint32_t s = *head; s != kNone; s = slots_[s].next) {
      fn(slots_[s].zone);
    }
  }

  /// Visit every record as fn(record), in slot order.
  template <typename F>
  void for_each(F&& fn) const {
    for (const Slot& s : slots_) {
      if (!s.zone.piece.empty()) fn(s.zone);
    }
  }

  std::size_t size() const noexcept { return live_; }
  bool empty() const noexcept { return live_ == 0; }
  void clear();

  /// Estimated heap footprint: slots, piece payloads, key index.
  std::size_t memory_bytes() const;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Slot {
    PieceZone zone;  // empty piece marks a free slot
    std::uint32_t next = kNone;
  };

  std::uint32_t find_slot(const ZoneAddr& addr, Id key) const;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  FlatMap<Id, std::uint32_t> index_;  // key -> first slot of its list
  std::size_t live_ = 0;
};

}  // namespace hypersub::core
