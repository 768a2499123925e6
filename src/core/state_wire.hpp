#pragma once
// Wire encodings of the core value types shared by zone-state transfer
// (join/leave) and whole-system checkpoints: HyperRect, SubId, StoredSub,
// piece-zone frames.
// Kept in one place so the two features can never drift apart on layout.

#include <cstdint>

#include "common/hyperrect.hpp"
#include "common/wire.hpp"
#include "core/piece_zones.hpp"
#include "core/sub_arena.hpp"
#include "core/subid.hpp"
#include "core/zone_state.hpp"
#include "lph/zone.hpp"

namespace hypersub::core {

inline void save_rect(common::ByteWriter& w, const HyperRect& r) {
  w.u32(std::uint32_t(r.dimensions()));
  for (const Interval& d : r.dims()) {
    w.f64(d.lo);
    w.f64(d.hi);
  }
}

inline HyperRect load_rect(common::ByteReader& r) {
  const std::uint32_t n = r.u32();
  std::vector<Interval> dims;
  dims.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const double lo = r.f64();
    const double hi = r.f64();
    dims.push_back(Interval{lo, hi});
  }
  return HyperRect(std::move(dims));
}

inline void save_subid(common::ByteWriter& w, const SubId& s) {
  w.u64(s.target);
  w.u32(s.iid);
  w.u8(std::uint8_t(s.kind));
}

inline SubId load_subid(common::ByteReader& r) {
  SubId s;
  s.target = r.u64();
  s.iid = r.u32();
  s.kind = SubIdKind(r.u8());
  return s;
}

inline void save_zone_addr(common::ByteWriter& w, const ZoneAddr& a) {
  w.u32(a.scheme);
  w.u32(a.subscheme);
  w.u64(a.zone.code);
  w.u32(std::uint32_t(a.zone.level));
}

inline ZoneAddr load_zone_addr(common::ByteReader& r) {
  ZoneAddr a;
  a.scheme = r.u32();
  a.subscheme = r.u32();
  a.zone.code = r.u64();
  a.zone.level = int(r.u32());
  return a;
}

// Piece-zone section of node images and transfer snapshots (wire v2+).
// Each frame describes a run of `span` piece-only zones along one parent
// path: tail address, span, the run head's piece and parent key, then the
// rotated keys head..tail. The writer emits one-zone frames; images from
// older writers may hold longer runs, which load_piece_frame expands.
inline void save_piece_frame(common::ByteWriter& w, const PieceZone& z) {
  w.u32(z.addr.scheme);
  w.u32(z.addr.subscheme);
  w.u64(z.addr.zone.code);
  w.u32(std::uint32_t(z.addr.zone.level));
  w.u32(1);  // span
  save_rect(w, z.piece);
  w.u64(z.parent_key);
  w.u64(z.key);
}

/// Read one frame and pass emit(PieceZone) one record per level, head
/// first. Member L of a run is the tail's ancestor at L; its piece is the
/// head piece clipped to its extent, its parent key the previous member's
/// key. `zones_of(scheme, subscheme)` yields the lph::ZoneSystem.
template <typename ZonesOf, typename Emit>
void load_piece_frame(common::ByteReader& r, ZonesOf&& zones_of, Emit&& emit) {
  ZoneAddr tail;
  tail.scheme = r.u32();
  tail.subscheme = r.u32();
  tail.zone.code = r.u64();
  tail.zone.level = int(r.u32());
  const std::uint32_t span = r.u32();
  const HyperRect head_piece = load_rect(r);
  Id parent_key = r.u64();
  const lph::ZoneSystem& zsys = zones_of(tail.scheme, tail.subscheme);
  for (std::uint32_t below = span; below-- > 0;) {
    PieceZone z;
    z.addr = tail;
    z.addr.zone.code >>= std::uint64_t(below) * zsys.base_bits();
    z.addr.zone.level -= int(below);
    z.key = r.u64();
    z.parent_key = parent_key;
    parent_key = z.key;
    const HyperRect ext = zsys.extent(z.addr.zone);
    if (head_piece.overlaps(ext)) z.piece = head_piece.intersect(ext);
    if (!z.piece.empty()) emit(std::move(z));
  }
}

inline void save_stored_sub(common::ByteWriter& w, const StoredSub& s) {
  save_subid(w, s.owner);
  save_rect(w, s.sub.range());
  save_rect(w, s.projected);
}

inline StoredSub load_stored_sub(common::ByteReader& r) {
  StoredSub s;
  s.owner = load_subid(r);
  s.sub = pubsub::Subscription(load_rect(r));
  s.projected = load_rect(r);
  return s;
}

}  // namespace hypersub::core
