#include "core/zone_state.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <tuple>

#include "common/ids.hpp"
#include "core/state_wire.hpp"

namespace hypersub::core {

namespace {
const HyperRect kEmptyRect{};
const std::vector<MigratedBucket> kNoBuckets{};
constexpr std::uint32_t kNoPos = ~std::uint32_t{0};
constexpr std::size_t kNotRep = ~std::size_t{0};
}  // namespace

// -- OwnerTable ---------------------------------------------------------------

std::size_t ZoneState::OwnerTable::home(const SubId& owner) const noexcept {
  const std::uint64_t h = splitmix64(
      owner.target ^
      splitmix64((std::uint64_t(owner.iid) << 8) | std::uint64_t(owner.kind)));
  return std::size_t(h) & mask();
}

void ZoneState::OwnerTable::place(Ref ref, const SubArena& arena) {
  std::size_t i = home(arena.owner(ref));
  while (slots_[i] != SubArena::kNullRef) i = (i + 1) & mask();
  slots_[i] = ref;
}

void ZoneState::OwnerTable::assign(const SubArena& arena) {
  std::size_t capacity = 16;
  while (capacity < 2 * arena.size()) capacity *= 2;
  slots_.assign(capacity, SubArena::kNullRef);
  arena.for_each([&](Ref r) { place(r, arena); });
}

void ZoneState::OwnerTable::insert(Ref ref, const SubArena& arena) {
  if (2 * arena.size() > slots_.size()) {
    std::vector<Ref> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, 2 * old.size()),
                  SubArena::kNullRef);
    for (const Ref r : old) {
      if (r != SubArena::kNullRef) place(r, arena);
    }
  }
  place(ref, arena);
}

void ZoneState::OwnerTable::erase(Ref ref, const SubArena& arena) {
  std::size_t i = home(arena.owner(ref));
  while (slots_[i] != ref) {
    assert(slots_[i] != SubArena::kNullRef);
    i = (i + 1) & mask();
  }
  // Backward shift: an entry later in the cluster moves into the hole
  // unless its home lies cyclically in (hole, its slot].
  for (std::size_t j = (i + 1) & mask(); slots_[j] != SubArena::kNullRef;
       j = (j + 1) & mask()) {
    const std::size_t k = home(arena.owner(slots_[j]));
    const bool stays = i <= j ? (i < k && k <= j) : (i < k || k <= j);
    if (stays) continue;
    slots_[i] = slots_[j];
    i = j;
  }
  slots_[i] = SubArena::kNullRef;
}

// -- ZoneState ----------------------------------------------------------------

ZoneState::SubStore& ZoneState::store() {
  if (!store_) store_ = std::make_unique<SubStore>();
  return *store_;
}

const std::vector<MigratedBucket>& ZoneState::buckets() const noexcept {
  return store_ ? store_->buckets : kNoBuckets;
}

void ZoneState::set_index_threshold(std::size_t threshold) {
  index_threshold_ = threshold;
  // A piece-only zone holds zero subscriptions; materialize its store only
  // if the new threshold indexes the empty set (threshold 0).
  if (!store_ && threshold > 0) return;
  SubStore& st = store();
  assert(!st.pending);
  if (!st.indexed && st.live_reps() >= index_threshold_) build_index();
  if (st.indexed && st.live_reps() < index_threshold_) drop_index();
}

void ZoneState::build_index() {
  SubStore& st = store();
  st.indexed = false;  // compact() must not remap the stale slot tables
  compact(st);
  const std::size_t n = st.order.size();
  std::vector<HyperRect> ranges;
  ranges.reserve(n);
  st.slot_of_ref.clear();
  st.pos_of_slot.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SubArena::Ref ref = st.order[i];
    ranges.push_back(st.arena.full_rect(ref));
    if (st.slot_of_ref.size() <= ref) st.slot_of_ref.resize(ref + 1, kNoPos);
    st.slot_of_ref[ref] = std::uint32_t(i);
    st.pos_of_slot[i] = std::uint32_t(i);
  }
  st.index.assign(std::move(ranges));
  st.owners.assign(st.arena);
  st.indexed = true;
}

bool ZoneState::begin_bulk() {
  SubStore& st = store();
  if (st.pending) return false;
  st.pending = true;
  return true;
}

void ZoneState::end_bulk() {
  SubStore& st = *store_;
  assert(st.pending);
  st.pending = false;
  if (st.indexed || st.live_reps() >= index_threshold_) build_index();
}

void ZoneState::drop_index() {
  SubStore& st = store();
  st.index = SubIndex{};
  st.slot_of_ref = {};
  st.pos_of_slot = {};
  st.owners = OwnerTable{};
  st.indexed = false;
}

SubArena::Ref ZoneState::find_coverer(SubStore& st,
                                      const HyperRect& full) const {
  if (!st.live_index()) {
    for (const SubArena::Ref ref : st.order) {
      if (ref != SubArena::kNullRef &&
          st.arena.full_covers(ref, full.dims())) {
        return ref;
      }
    }
    return SubArena::kNullRef;
  }
  // A coverer contains every point of `full`, including its lo corner —
  // probe the index there, then take the first covering candidate in
  // insertion order (same pick as the scan path, so indexed and scan zones
  // quench identically).
  st.probe.clear();
  for (const Interval& d : full.dims()) st.probe.push_back(d.lo);
  st.cand.clear();
  st.index.candidates(st.probe, st.cand);
  for (auto& c : st.cand) c = std::uint32_t(st.pos_of_slot[c]);
  std::sort(st.cand.begin(), st.cand.end());
  for (const std::uint32_t pos : st.cand) {
    const SubArena::Ref ref = st.order[pos];
    if (st.arena.full_covers(ref, full.dims())) return ref;
  }
  return SubArena::kNullRef;
}

void ZoneState::append_representative(SubStore& st, SubArena::Ref ref) {
  if (st.live_index()) {
    const std::uint32_t slot = st.index.insert(st.arena.full_rect(ref));
    if (st.slot_of_ref.size() <= ref) st.slot_of_ref.resize(ref + 1, kNoPos);
    st.slot_of_ref[ref] = slot;
    if (st.pos_of_slot.size() <= slot) st.pos_of_slot.resize(slot + 1, kNoPos);
    st.pos_of_slot[slot] = std::uint32_t(st.order.size());
  }
  st.order.push_back(ref);
  if (!st.indexed && !st.pending && st.live_reps() >= index_threshold_) {
    build_index();
  }
}

void ZoneState::drop_representative(SubStore& st, std::size_t pos) {
  const SubArena::Ref ref = st.order[pos];
  if (st.indexed) {
    // Once built, the index sticks below the threshold (hysteresis): churn
    // around the threshold should not oscillate between builds and drops.
    const std::uint32_t slot = st.slot_of_ref[ref];
    st.index.remove(slot);
    st.pos_of_slot[slot] = kNoPos;
    st.owners.erase(ref, st.arena);
  }
  st.order[pos] = SubArena::kNullRef;
  ++st.dead;
}

void ZoneState::release(SubStore& st, SubArena::Ref ref) {
  if (st.indexed) st.owners.erase(ref, st.arena);
  st.covers.release(ref);  // no-op once its representative has left
  st.arena.remove(ref);
}

void ZoneState::compact(SubStore& st) {
  if (st.dead == 0) return;
  std::size_t kept = 0;
  for (const SubArena::Ref ref : st.order) {
    if (ref == SubArena::kNullRef) continue;
    if (st.indexed) st.pos_of_slot[st.slot_of_ref[ref]] = std::uint32_t(kept);
    st.order[kept++] = ref;
  }
  st.order.resize(kept);
  st.dead = 0;
}

std::pair<SubArena::Ref, std::size_t> ZoneState::find_owner(
    const SubStore& st, const SubId& owner) const {
  if (st.live_index()) {
    // Where one owner has several entries, pick the one the scan below
    // would: representatives first, by position; then coverees, by their
    // representative's position and their quench order.
    const auto pos_of = [&](SubArena::Ref rep) {
      return std::size_t(st.pos_of_slot[st.slot_of_ref[rep]]);
    };
    const auto rank = [&](SubArena::Ref ref) {
      const SubArena::Ref rep = st.covers.rep_of(ref);
      if (rep == SubArena::kNullRef) {
        return std::tuple(0, pos_of(ref), std::size_t{0});
      }
      const auto& list = *st.covers.coverees(rep);
      return std::tuple(
          1, pos_of(rep),
          std::size_t(std::find(list.begin(), list.end(), ref) - list.begin()));
    };
    const SubArena::Ref ref = st.owners.find(
        owner, st.arena,
        [&](SubArena::Ref a, SubArena::Ref b) { return rank(a) < rank(b); });
    if (ref == SubArena::kNullRef ||
        st.covers.rep_of(ref) != SubArena::kNullRef) {
      return {ref, kNotRep};
    }
    return {ref, pos_of(ref)};
  }
  for (std::size_t i = 0; i < st.order.size(); ++i) {
    const SubArena::Ref ref = st.order[i];
    if (ref != SubArena::kNullRef && st.arena.owner(ref) == owner) {
      return {ref, i};
    }
  }
  // Not a representative — maybe a quenched coveree. Enumerate via the
  // representatives (insertion order), never the hash maps, so lookup
  // order is deterministic.
  if (cover_ && !st.covers.empty()) {
    for (const SubArena::Ref rep : st.order) {
      if (rep == SubArena::kNullRef) continue;
      const auto* list = st.covers.coverees(rep);
      if (list == nullptr) continue;
      for (const SubArena::Ref ref : *list) {
        if (st.arena.owner(ref) == owner) return {ref, kNotRep};
      }
    }
  }
  return {SubArena::kNullRef, kNotRep};
}

void ZoneState::rehome_coveree(SubStore& st, SubArena::Ref ref) {
  const HyperRect full = st.arena.full_rect(ref);
  const SubArena::Ref rep = find_coverer(st, full);
  if (rep != SubArena::kNullRef) {
    st.covers.quench(rep, ref);
    return;
  }
  // Promoted representatives immediately become coverer candidates for the
  // orphans re-homed after them (exact-duplicate groups collapse back to
  // one representative).
  append_representative(st, ref);
  ++cover_promotions_;
}

bool ZoneState::add_subscription(StoredSub s) {
  SubStore& st = store();
  if (cover_) {
    const SubArena::Ref rep = find_coverer(st, s.sub.range());
    if (rep != SubArena::kNullRef) {
      // Quenched: stored and matched via the representative, but never
      // registered in order_/SubIndex. Projection is monotone, so the
      // quenched projection is inside the representative's — the summary
      // cannot grow and nothing propagates upward.
      assert(summary_.covers(s.projected));
      const SubArena::Ref ref = st.arena.add(s);
      st.covers.quench(rep, ref);
      if (st.live_index()) st.owners.insert(ref, st.arena);
      return false;
    }
  }
  const HyperRect grown = summary_.hull(s.projected);
  const SubArena::Ref ref = st.arena.add(s);
  // A threshold-crossing build in append_representative covers the new
  // entry itself.
  if (st.live_index()) st.owners.insert(ref, st.arena);
  append_representative(st, ref);
  if (grown == summary_) return false;
  summary_ = grown;
  return true;
}

std::optional<StoredSub> ZoneState::remove_subscription(const SubId& owner) {
  if (!store_) return std::nullopt;
  SubStore& st = *store_;
  assert(!st.pending);
  const auto [ref, pos] = find_owner(st, owner);
  if (ref == SubArena::kNullRef) return std::nullopt;
  StoredSub out = st.arena.materialize(ref);
  if (pos == kNotRep) {
    // A coveree lies inside its representative's rect, which is still
    // registered: the summary is unchanged.
    release(st, ref);
    return out;
  }
  // Un-quench promotion: the leaving representative's coverees re-home in
  // quench order — each re-quenches under the first surviving coverer or
  // becomes a representative itself.
  std::vector<SubArena::Ref> orphans = st.covers.take_coverees(ref);
  drop_representative(st, pos);
  st.arena.remove(ref);
  for (const SubArena::Ref o : orphans) rehome_coveree(st, o);
  shrink_summary(out.projected.dims());
  if (st.dead > st.live_reps()) compact(st);
  return out;
}

bool ZoneState::set_parent_piece(HyperRect rect, Id parent_key) {
  // An empty rect clears the piece (the parent's summary shrank away from
  // this child).
  if (rect.empty() && !parent_piece_) return false;
  const HyperRect before = summary_;
  const auto old = std::exchange(parent_piece_, std::nullopt);
  // The old piece leaves the contents — unless the new one covers it: then
  // the hull below absorbs every face the old one attained.
  if (old && (rect.empty() || !rect.covers(old->first))) {
    shrink_summary(old->first.dims());
  }
  if (!rect.empty()) {
    summary_ = summary_.hull(rect);
    parent_piece_ = {std::move(rect), parent_key};
  }
  return !(summary_ == before);
}

void ZoneState::shrink_summary(std::span<const Interval> gone) {
  const std::size_t d = gone.size();
  if (summary_.empty()) return;
  if (d > 32 || store_ == nullptr) {
    recompute_summary();  // faces do not fit the mask / nothing else left
    return;
  }
  // Bit 2i: `gone` attains the lo face of dimension i; bit 2i+1: the hi.
  std::uint64_t open = 0;
  for (std::size_t i = 0; i < d; ++i) {
    if (gone[i].lo == summary_.dim(i).lo) open |= std::uint64_t{1} << (2 * i);
    if (gone[i].hi == summary_.dim(i).hi) {
      open |= std::uint64_t{1} << (2 * i + 1);
    }
  }
  if (open == 0) return;
  const auto witness = [&](std::span<const Interval> r) {
    for (std::uint64_t bits = open; bits != 0; bits &= bits - 1) {
      const int f = std::countr_zero(bits);
      const Interval& s = summary_.dim(std::size_t(f / 2));
      const Interval& x = r[std::size_t(f / 2)];
      if (f % 2 == 0 ? x.lo == s.lo : x.hi == s.hi) {
        open &= ~(std::uint64_t{1} << f);
      }
    }
    return open == 0;
  };
  if (parent_piece_ && witness(parent_piece_->first.dims())) return;
  for (const MigratedBucket& b : store_->buckets) {
    if (witness(b.summary.dims())) return;
  }
  for (const SubArena::Ref ref : store_->order) {
    if (ref != SubArena::kNullRef && witness(store_->arena.projected(ref))) {
      return;
    }
  }
  recompute_summary();
}

void ZoneState::add_migrated_bucket(MigratedBucket b) {
  SubStore& st = store();
  st.buckets.push_back(std::move(b));
  // Migrated subs were already part of the summary before migration; the
  // bucket hull cannot grow it, but hull anyway for safety.
  summary_ = summary_.hull(st.buckets.back().summary);
}

std::vector<StoredSub> ZoneState::extract_subscribers_in_arc(Id lo, Id hi) {
  if (!store_) return {};
  SubStore& st = *store_;
  assert(!st.pending);
  std::vector<StoredSub> out;
  // Coverees leaving with the arc (their relation is dropped and they are
  // materialized after the representatives), and coverees staying behind
  // while their representative leaves (re-homed below).
  std::vector<SubArena::Ref> leaving_coverees;
  std::vector<SubArena::Ref> orphans;
  for (std::size_t i = 0; i < st.order.size(); ++i) {
    const SubArena::Ref ref = st.order[i];
    if (ref == SubArena::kNullRef) continue;
    const bool leaves =
        ring::in_closed_open(st.arena.owner(ref).target, lo, hi);
    if (cover_) {
      if (const auto* list = st.covers.coverees(ref)) {
        for (const SubArena::Ref c : *list) {
          if (ring::in_closed_open(st.arena.owner(c).target, lo, hi)) {
            leaving_coverees.push_back(c);
          } else if (leaves) {
            orphans.push_back(c);
          }
        }
      }
      if (leaves) st.covers.take_coverees(ref);
    }
    if (leaves) {
      out.push_back(st.arena.materialize(ref));
      drop_representative(st, i);
      st.arena.remove(ref);
    }
  }
  for (const SubArena::Ref c : leaving_coverees) {
    out.push_back(st.arena.materialize(c));
    release(st, c);
  }
  for (const SubArena::Ref o : orphans) rehome_coveree(st, o);
  compact(st);
  // Shrink the summary exactly. Leaving it "still a valid cover" (the old
  // contract) meant a donor kept attracting events that matched nothing
  // locally forever after a migration — and after a failed pointer leg,
  // with no bucket to forward through, those events were pure waste.
  recompute_summary();
  return out;
}

void ZoneState::match(const Point& full, const Point& projected,
                      std::vector<SubId>& out) const {
  if (store_) {
    SubStore& st = *store_;
    // A representative hit is expanded to its coverees right away (quench
    // order), each re-checked exactly: a coveree's rect is contained in the
    // representative's but may still exclude this event.
    const bool expand = cover_ && !st.covers.empty();
    const auto emit = [&](SubArena::Ref ref) {
      out.push_back(st.arena.owner(ref));
      if (!expand) return;
      if (const auto* list = st.covers.coverees(ref)) {
        for (const SubArena::Ref c : *list) {
          if (st.arena.full_contains(c, full)) {
            out.push_back(st.arena.owner(c));
          }
        }
      }
    };
    if (!st.live_index()) {
      for (const SubArena::Ref ref : st.order) {
        if (ref != SubArena::kNullRef && st.arena.full_contains(ref, full)) {
          emit(ref);
        }
      }
    } else {
      st.cand.clear();
      st.index.candidates(full, st.cand);
      // Candidates arrive in slot order; emit in insertion order so the
      // indexed path is bit-for-bit identical to the scan (the parity tests
      // rely on it, and so does any downstream consumer of delivery order).
      for (auto& c : st.cand) c = std::uint32_t(st.pos_of_slot[c]);
      std::sort(st.cand.begin(), st.cand.end());
      for (const std::uint32_t pos : st.cand) {
        const SubArena::Ref ref = st.order[pos];
        if (st.arena.full_contains(ref, full)) emit(ref);
      }
    }
  }
  if (parent_piece_ && parent_piece_->first.contains(projected)) {
    out.push_back(SubId{parent_piece_->second, 0, SubIdKind::kZone});
  }
  if (store_) {
    for (const auto& b : store_->buckets) {
      // Hull first (cheap reject), then the exact per-sub rects: an event in
      // the hull's dead corners would otherwise chase the pointer and match
      // nothing at the acceptor. Empty sub_rects = trust the hull (tests
      // installing bare buckets).
      if (!b.summary.contains(projected)) continue;
      if (!b.sub_rects.empty()) {
        bool hit = false;
        for (const HyperRect& r : b.sub_rects) {
          if (r.contains(projected)) {
            hit = true;
            break;
          }
        }
        if (!hit) continue;
      }
      out.push_back(b.pointer);
    }
  }
}

std::vector<StoredSub> ZoneState::subscriptions() const {
  if (!store_) return {};
  std::vector<StoredSub> out;
  out.reserve(store_->arena.size());
  for (const SubArena::Ref ref : store_->order) {
    if (ref == SubArena::kNullRef) continue;
    out.push_back(store_->arena.materialize(ref));
    if (const auto* list = store_->covers.coverees(ref)) {
      for (const SubArena::Ref c : *list) {
        out.push_back(store_->arena.materialize(c));
      }
    }
  }
  return out;
}

const HyperRect& ZoneState::child_piece(int digit) const {
  if (std::size_t(digit) >= child_pieces_.size()) return kEmptyRect;
  return child_pieces_[std::size_t(digit)];
}

void ZoneState::set_child_piece(int digit, HyperRect piece) {
  if (piece.empty()) {
    // Clearing: release the cache vector entirely when the last non-empty
    // entry goes — zones demoted to structural (and later chain-absorbed)
    // must not keep a base-sized rect vector alive.
    if (std::size_t(digit) >= child_pieces_.size()) return;
    child_pieces_[std::size_t(digit)] = HyperRect{};
    for (const HyperRect& p : child_pieces_) {
      if (!p.empty()) return;
    }
    child_pieces_ = {};
    return;
  }
  if (std::size_t(digit) >= child_pieces_.size()) {
    child_pieces_.resize(std::size_t(digit) + 1);
  }
  child_pieces_[std::size_t(digit)] = std::move(piece);
}

HyperRect ZoneState::exact_summary() const {
  // Fold hulls dimension-wise over the arena's projected pool — no
  // per-subscription HyperRect temporaries.
  std::vector<Interval> acc;
  bool have = false;
  const auto fold = [&](std::span<const Interval> d) {
    if (d.empty()) return;
    if (!have) {
      acc.assign(d.begin(), d.end());
      have = true;
      return;
    }
    assert(acc.size() == d.size());
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = acc[i].hull(d[i]);
  };
  if (store_) {
    for (const SubArena::Ref ref : store_->order) {
      if (ref != SubArena::kNullRef) fold(store_->arena.projected(ref));
    }
  }
  if (parent_piece_) fold(parent_piece_->first.dims());
  if (store_) {
    for (const auto& b : store_->buckets) fold(b.summary.dims());
  }
  return have ? HyperRect(std::move(acc)) : HyperRect{};
}

bool ZoneState::recompute_summary() {
  HyperRect fresh = exact_summary();
  if (fresh == summary_) return false;
  summary_ = std::move(fresh);
  return true;
}

bool ZoneState::has_subscription(const SubId& owner) const {
  return store_ && find_owner(*store_, owner).first != SubArena::kNullRef;
}

void ZoneState::save(common::ByteWriter& w) const {
  // Parent piece, child-piece cache, summary, promotion counter.
  w.boolean(parent_piece_.has_value());
  if (parent_piece_) {
    save_rect(w, parent_piece_->first);
    w.u64(parent_piece_->second);
  }
  w.u32(std::uint32_t(child_pieces_.size()));
  for (const HyperRect& p : child_pieces_) save_rect(w, p);
  save_rect(w, summary_);
  w.u64(cover_promotions_);

  // The boxed store: representatives in insertion order, each carrying its
  // coverees in quench order, then migrated buckets, then the index flag.
  w.boolean(store_ != nullptr);
  if (!store_) return;
  const SubStore& st = *store_;
  assert(!st.pending);
  w.u32(std::uint32_t(st.live_reps()));
  for (const SubArena::Ref ref : st.order) {
    if (ref == SubArena::kNullRef) continue;
    save_stored_sub(w, st.arena.materialize(ref));
    const auto* list = st.covers.coverees(ref);
    w.u32(list ? std::uint32_t(list->size()) : 0);
    if (list) {
      for (const SubArena::Ref c : *list) {
        save_stored_sub(w, st.arena.materialize(c));
      }
    }
  }
  w.u32(std::uint32_t(st.buckets.size()));
  for (const MigratedBucket& b : st.buckets) {
    save_rect(w, b.summary);
    w.u32(std::uint32_t(b.sub_rects.size()));
    for (const HyperRect& r : b.sub_rects) save_rect(w, r);
    save_subid(w, b.pointer);
  }
  w.boolean(st.indexed);
}

void ZoneState::restore(common::ByteReader& r) {
  assert(!store_ && summary_.empty());  // restore into a fresh zone only
  if (r.boolean()) {
    HyperRect rect = load_rect(r);
    const Id parent_key = r.u64();
    parent_piece_ = {std::move(rect), parent_key};
  }
  const std::uint32_t n_children = r.u32();
  child_pieces_.clear();
  child_pieces_.reserve(n_children);
  for (std::uint32_t i = 0; i < n_children; ++i) {
    child_pieces_.push_back(load_rect(r));
  }
  HyperRect summary = load_rect(r);
  cover_promotions_ = r.u64();

  if (r.boolean()) {
    SubStore& st = store();
    const std::uint32_t n_reps = r.u32();
    st.order.reserve(n_reps);
    for (std::uint32_t i = 0; i < n_reps; ++i) {
      // Forced structure: the serialized rep/coveree split is replayed as
      // recorded — no find_coverer re-run, no threshold-triggered index
      // build mid-restore — so refs land in the same insertion order and
      // quench relations the source zone had.
      const SubArena::Ref rep = st.arena.add(load_stored_sub(r));
      st.order.push_back(rep);
      const std::uint32_t n_cov = r.u32();
      for (std::uint32_t j = 0; j < n_cov; ++j) {
        st.covers.quench(rep, st.arena.add(load_stored_sub(r)));
      }
    }
    const std::uint32_t n_buckets = r.u32();
    st.buckets.reserve(n_buckets);
    for (std::uint32_t i = 0; i < n_buckets; ++i) {
      MigratedBucket b;
      b.summary = load_rect(r);
      const std::uint32_t n_rects = r.u32();
      b.sub_rects.reserve(n_rects);
      for (std::uint32_t j = 0; j < n_rects; ++j) {
        b.sub_rects.push_back(load_rect(r));
      }
      b.pointer = load_subid(r);
      st.buckets.push_back(std::move(b));
    }
    if (r.boolean()) build_index();
  }
  summary_ = std::move(summary);
}

std::uint64_t ZoneState::fingerprint() const {
  const auto mix_rect = [](std::uint64_t h, const HyperRect& r) {
    h = splitmix64(h ^ r.dimensions());
    for (const Interval& d : r.dims()) {
      std::uint64_t lo, hi;
      std::memcpy(&lo, &d.lo, sizeof lo);
      std::memcpy(&hi, &d.hi, sizeof hi);
      h = splitmix64(h ^ lo);
      h = splitmix64(h ^ hi);
    }
    return h;
  };
  const auto mix_subid = [](std::uint64_t h, const SubId& s) {
    h = splitmix64(h ^ s.target);
    h = splitmix64(h ^ ((std::uint64_t(s.iid) << 8) | std::uint64_t(s.kind)));
    return h;
  };

  // Order-insensitive over the stored set: hash each entry independently,
  // sort the digests, fold. Protocol joins permute insertion order and
  // quench assignment relative to an oracle build; both are semantically
  // irrelevant to delivery sets.
  std::vector<std::uint64_t> parts;
  if (store_) {
    const SubStore& st = *store_;
    const auto sub_digest = [&](SubArena::Ref ref) {
      std::uint64_t h = mix_subid(0x5b5b5b5bull, st.arena.owner(ref));
      h = mix_rect(h, st.arena.full_rect(ref));
      return mix_rect(h, st.arena.projected_rect(ref));
    };
    for (const SubArena::Ref ref : st.order) {
      if (ref == SubArena::kNullRef) continue;
      parts.push_back(sub_digest(ref));
      if (const auto* list = st.covers.coverees(ref)) {
        for (const SubArena::Ref c : *list) parts.push_back(sub_digest(c));
      }
    }
    for (const MigratedBucket& b : st.buckets) {
      std::uint64_t h = mix_rect(0xb0b0b0b0ull, b.summary);
      for (const HyperRect& r : b.sub_rects) h = mix_rect(h, r);
      parts.push_back(mix_subid(h, b.pointer));
    }
  }
  std::sort(parts.begin(), parts.end());
  std::uint64_t h = 0x9e3779b9ull;
  for (const std::uint64_t p : parts) h = splitmix64(h ^ p);
  if (parent_piece_) {
    h = mix_rect(splitmix64(h ^ parent_piece_->second), parent_piece_->first);
  }
  // Child pieces compare as a sparse map digit -> piece: trailing empties
  // (a lazily-sized cache) must not distinguish two equivalent zones.
  for (std::size_t d = 0; d < child_pieces_.size(); ++d) {
    if (child_pieces_[d].empty()) continue;
    h = mix_rect(splitmix64(h ^ d), child_pieces_[d]);
  }
  return mix_rect(h, summary_);
}

namespace {

std::size_t rect_heap_bytes(const HyperRect& r) noexcept {
  return r.dims().capacity() * sizeof(Interval);
}

}  // namespace

std::size_t ZoneState::structural_bytes() const noexcept {
  std::size_t bytes = rect_heap_bytes(summary_);
  if (parent_piece_) bytes += rect_heap_bytes(parent_piece_->first);
  bytes += child_pieces_.capacity() * sizeof(HyperRect);
  for (const HyperRect& p : child_pieces_) bytes += rect_heap_bytes(p);
  return bytes;
}

std::size_t ZoneState::store_bytes() const noexcept {
  if (!store_) return 0;
  const SubStore& st = *store_;
  std::size_t bytes = sizeof(SubStore) + st.arena.memory_bytes() +
                      st.order.capacity() * sizeof(SubArena::Ref) +
                      st.buckets.capacity() * sizeof(MigratedBucket) +
                      st.slot_of_ref.capacity() * sizeof(std::uint32_t) +
                      st.pos_of_slot.capacity() * sizeof(std::uint32_t) +
                      st.owners.memory_bytes() +
                      st.cand.capacity() * sizeof(std::uint32_t) +
                      st.probe.capacity() * sizeof(double);
  if (st.indexed) bytes += st.index.memory_bytes();
  for (const MigratedBucket& b : st.buckets) {
    bytes += rect_heap_bytes(b.summary) +
             b.sub_rects.capacity() * sizeof(HyperRect);
    for (const HyperRect& r : b.sub_rects) bytes += rect_heap_bytes(r);
  }
  return bytes;
}

}  // namespace hypersub::core
