#include "core/piece_zones.hpp"

#include <cassert>

namespace hypersub::core {

std::uint32_t PieceZoneSet::find_slot(const ZoneAddr& addr, Id key) const {
  const std::uint32_t* head = index_.find(key);
  if (head == nullptr) return kNone;
  for (std::uint32_t s = *head; s != kNone; s = slots_[s].next) {
    if (slots_[s].zone.addr == addr) return s;
  }
  return kNone;
}

PieceZone* PieceZoneSet::find(const ZoneAddr& addr, Id key) {
  const std::uint32_t s = find_slot(addr, key);
  return s == kNone ? nullptr : &slots_[s].zone;
}

const PieceZone* PieceZoneSet::find(const ZoneAddr& addr, Id key) const {
  const std::uint32_t s = find_slot(addr, key);
  return s == kNone ? nullptr : &slots_[s].zone;
}

void PieceZoneSet::insert(PieceZone z) {
  assert(!z.piece.empty());
  assert(find_slot(z.addr, z.key) == kNone);
  std::uint32_t s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    s = std::uint32_t(slots_.size());
    slots_.emplace_back();
  }
  const Id key = z.key;
  slots_[s].zone = std::move(z);
  if (std::uint32_t* head = index_.find(key)) {
    slots_[s].next = *head;
    *head = s;
  } else {
    slots_[s].next = kNone;
    index_.insert(key, s);
  }
  ++live_;
}

std::optional<PieceZone> PieceZoneSet::take(const ZoneAddr& addr, Id key) {
  std::uint32_t* head = index_.find(key);
  if (head == nullptr) return std::nullopt;
  for (std::uint32_t* link = head; *link != kNone;
       link = &slots_[*link].next) {
    const std::uint32_t s = *link;
    if (!(slots_[s].zone.addr == addr)) continue;
    *link = slots_[s].next;
    if (*head == kNone) index_.erase(key);
    std::optional<PieceZone> out(std::move(slots_[s].zone));
    slots_[s] = Slot{};
    free_.push_back(s);
    --live_;
    return out;
  }
  return std::nullopt;
}

void PieceZoneSet::clear() {
  slots_.clear();
  free_.clear();
  index_.clear();
  live_ = 0;
}

std::size_t PieceZoneSet::memory_bytes() const {
  std::size_t bytes = slots_.capacity() * sizeof(Slot) +
                      free_.capacity() * sizeof(std::uint32_t) +
                      index_.memory_bytes();
  for (const Slot& s : slots_) {
    bytes += s.zone.piece.dims().capacity() * sizeof(Interval);
  }
  return bytes;
}

}  // namespace hypersub::core
