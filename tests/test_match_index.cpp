// Index/scan parity: the SubIndex-backed ZoneState::match must return
// exactly what the linear scan returns — same subids, same order — across
// randomized workloads and through every mutation path (add, remove,
// arc extraction, bucket/piece installs), plus end-to-end delivery with an
// aggressive index threshold. An index built in one pass over a zone's
// population (bulk scope) must answer exactly like one grown incrementally.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "chord/chord_net.hpp"
#include "core/hypersub_system.hpp"
#include "core/sub_index.hpp"
#include "core/zone_state.hpp"
#include "net/topology.hpp"
#include "workload/scheme_factory.hpp"
#include "workload/zipf_workload.hpp"

namespace hypersub {
namespace {

using core::StoredSub;
using core::SubId;
using core::SubIdKind;
using core::SubIndex;
using core::ZoneAddr;
using core::ZoneState;

constexpr std::size_t kNever = ~std::size_t{0};

StoredSub make_stored(std::size_t i, const pubsub::Subscription& sub) {
  // Spread owner ids over the whole ring so random arcs hit some of them.
  const Id owner = Id(i) * 0x9E3779B97F4A7C15ull + 13;
  return StoredSub{SubId{owner, std::uint32_t(i), SubIdKind::kSubscriber},
                   sub, sub.range()};
}

std::vector<SubId> match_of(const ZoneState& z, const Point& p) {
  std::vector<SubId> out;
  z.match(p, p, out);
  return out;
}

/// Owners in ZoneState::subscriptions() order: representatives in insertion
/// order, each followed by its coverees — the quench structure.
std::vector<SubId> owners_of(const ZoneState& z) {
  std::vector<SubId> out;
  for (const auto& s : z.subscriptions()) out.push_back(s.owner);
  return out;
}

// -- SubIndex unit properties -------------------------------------------------

TEST(SubIndex, CandidatesAreSupersetOfExactMatches) {
  workload::WorkloadGenerator gen(workload::table1_spec(), 71);
  SubIndex idx;
  std::vector<HyperRect> live;
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 3000; ++i) {
    const auto r = gen.make_subscription().range();
    slots.push_back(idx.insert(r));
    live.push_back(r);
  }
  // Remove a third, keeping slot/live aligned.
  for (std::size_t i = live.size(); i-- > 0;) {
    if (i % 3 == 0) {
      idx.remove(slots[i]);
      slots.erase(slots.begin() + std::ptrdiff_t(i));
      live.erase(live.begin() + std::ptrdiff_t(i));
    }
  }
  ASSERT_EQ(idx.size(), live.size());

  std::vector<std::uint32_t> cand;
  for (int e = 0; e < 200; ++e) {
    const Point p = gen.make_event().point;
    cand.clear();
    idx.candidates(p, cand);
    ASSERT_TRUE(std::is_sorted(cand.begin(), cand.end()));
    const std::set<std::uint32_t> cset(cand.begin(), cand.end());
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].contains(p)) {
        EXPECT_TRUE(cset.count(slots[i]))
            << "slot " << slots[i] << " missing for event " << e;
      }
    }
  }
}

// The bitsets are one flat cells x stride matrix per dimension; the memory
// estimate must count it. Unit ranges [i, i+1] give 2n distinct-enough
// endpoints, so both dimensions get the full 128 cells.
TEST(SubIndex, MemoryBytesCountsFlatMatrix) {
  constexpr std::size_t kN = 1000;
  std::vector<HyperRect> ranges;
  for (std::size_t i = 0; i < kN; ++i) {
    const double x = double(i);
    ranges.push_back(HyperRect({Interval{x, x + 1}, Interval{x, x + 1}}));
  }
  SubIndex idx;
  idx.assign(ranges);
  ASSERT_EQ(idx.size(), kN);
  EXPECT_EQ(idx.stride(), (kN + 63) / 64);
  const auto matrix = [&] { return 2 * 128 * idx.stride() * sizeof(std::uint64_t); };
  EXPECT_GE(idx.memory_bytes(), matrix() + kN * sizeof(HyperRect));

  // Inserts past the stride double it (no rebuild yet: live < 2x built).
  const std::size_t before = idx.stride();
  for (std::size_t i = kN; i < 64 * before + 1; ++i) {
    const double x = double(i);
    idx.insert(HyperRect({Interval{x, x + 1}, Interval{x, x + 1}}));
  }
  EXPECT_EQ(idx.stride(), 2 * before);
  EXPECT_GE(idx.memory_bytes(), matrix());

  std::vector<std::uint32_t> cand;
  idx.candidates({double(64 * before), double(64 * before)}, cand);
  EXPECT_NE(std::find(cand.begin(), cand.end(), std::uint32_t(64 * before)),
            cand.end());
}

// After a one-shot build the index keeps working incrementally: a freed
// slot is handed out again, inserts past the stride grow it, and removing
// more than half the population triggers a rebuild — with candidates a
// superset of the exact answer throughout.
TEST(SubIndex, IncrementalAfterOneShotBuild) {
  workload::WorkloadGenerator gen(workload::table1_spec(), 73);
  std::vector<HyperRect> live;
  for (int i = 0; i < 300; ++i) live.push_back(gen.make_subscription().range());
  SubIndex idx;
  idx.assign(live);
  std::vector<bool> present(live.size(), true);

  const auto expect_superset = [&](const char* what) {
    std::vector<std::uint32_t> cand;
    for (int e = 0; e < 100; ++e) {
      const Point p = gen.make_event().point;
      cand.clear();
      idx.candidates(p, cand);
      ASSERT_TRUE(std::is_sorted(cand.begin(), cand.end())) << what;
      const std::set<std::uint32_t> cset(cand.begin(), cand.end());
      for (std::size_t s = 0; s < live.size(); ++s) {
        if (present[s] && live[s].contains(p)) {
          ASSERT_TRUE(cset.count(std::uint32_t(s))) << what << " slot " << s;
        }
      }
    }
  };
  expect_superset("one-shot");

  idx.remove(7);
  present[7] = false;
  live[7] = gen.make_subscription().range();
  EXPECT_EQ(idx.insert(live[7]), 7u);  // recycled
  present[7] = true;
  expect_superset("recycled slot");

  for (int i = 0; i < 200; ++i) {  // 500 live: past the 320-slot stride
    live.push_back(gen.make_subscription().range());
    present.push_back(true);
    EXPECT_EQ(idx.insert(live.back()), std::uint32_t(live.size() - 1));
  }
  EXPECT_EQ(idx.stride(), 10u);  // 5 words at the build, doubled once
  expect_superset("stride growth");

  // Built at 300 live: dropping below 150 rebuilds the partition.
  for (std::size_t s = 0; s < live.size() && idx.size() > 120; ++s) {
    if (s % 5 == 0) continue;
    idx.remove(std::uint32_t(s));
    present[s] = false;
  }
  EXPECT_EQ(idx.size(), 120u);
  expect_superset("after halving");
}

TEST(SubIndex, SlotRecyclingKeepsCapacityBounded) {
  workload::WorkloadGenerator gen(workload::table1_spec(), 72);
  SubIndex idx;
  std::vector<std::uint32_t> slots;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 100; ++i) {
      slots.push_back(idx.insert(gen.make_subscription().range()));
    }
    for (int i = 0; i < 100; ++i) {
      idx.remove(slots.back());
      slots.pop_back();
    }
  }
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_LE(idx.slot_capacity(), 100u);
}

// -- ZoneState parity ---------------------------------------------------------

// Drives an indexed and a scan-only ZoneState through the same mutation
// sequence and asserts bit-for-bit identical match output throughout.
TEST(MatchIndexParity, RandomizedMutationSequence) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    workload::WorkloadGenerator gen(workload::table1_spec(), seed);
    ZoneState indexed(ZoneAddr{}, /*index_threshold=*/0);
    ZoneState linear(ZoneAddr{}, /*index_threshold=*/kNever);

    std::vector<StoredSub> stored;
    auto add_batch = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto s = make_stored(stored.size(), gen.make_subscription());
        stored.push_back(s);
        indexed.add_subscription(s);
        linear.add_subscription(s);
      }
    };
    auto expect_parity = [&](const char* what) {
      ASSERT_TRUE(indexed.index_active());
      ASSERT_FALSE(linear.index_active());
      for (int e = 0; e < 64; ++e) {
        const Point p = gen.make_event().point;
        ASSERT_EQ(match_of(indexed, p), match_of(linear, p))
            << what << " seed " << seed << " event " << e;
      }
      EXPECT_EQ(indexed.summary(), linear.summary()) << what;
    };

    add_batch(800);
    expect_parity("after adds");

    // Remove a random quarter through the owner-keyed removal path.
    Rng rng(seed * 7 + 1);
    std::vector<StoredSub> keep;
    for (const auto& s : stored) {
      if (rng.chance(0.25)) {
        ASSERT_TRUE(indexed.remove_subscription(s.owner).has_value());
        ASSERT_TRUE(linear.remove_subscription(s.owner).has_value());
      } else {
        keep.push_back(s);
      }
    }
    stored = std::move(keep);
    expect_parity("after removals");

    // Migrate an arc away (the load-balancer path).
    const Id lo = rng.next_u64();
    const Id hi = lo + (~Id{0} / 3);  // wrap-aware arc, ~1/3 of the ring
    const auto out_i = indexed.extract_subscribers_in_arc(lo, hi);
    const auto out_l = linear.extract_subscribers_in_arc(lo, hi);
    ASSERT_EQ(out_i.size(), out_l.size());
    for (std::size_t i = 0; i < out_i.size(); ++i) {
      EXPECT_EQ(out_i[i].owner, out_l[i].owner);
    }
    EXPECT_GT(out_i.size(), 0u);
    expect_parity("after arc extraction");

    // Keep mutating after the extraction: adds must reuse freed slots.
    add_batch(400);
    expect_parity("after post-extraction adds");

    // Piece + bucket entries ride along identically in both modes.
    const HyperRect piece = stored.front().projected;
    indexed.set_parent_piece(piece, Id{42});
    linear.set_parent_piece(piece, Id{42});
    const core::MigratedBucket bucket{stored.back().projected,
                                      {},
                                      SubId{Id{7}, 1, SubIdKind::kMigrated}};
    indexed.add_migrated_bucket(bucket);
    linear.add_migrated_bucket(bucket);
    expect_parity("with piece and bucket");
  }
}

TEST(MatchIndexParity, ThresholdCrossingAndOverride) {
  workload::WorkloadGenerator gen(workload::table1_spec(), 5);
  ZoneState z(ZoneAddr{}, /*index_threshold=*/16);
  for (std::size_t i = 0; i < 15; ++i) {
    z.add_subscription(make_stored(i, gen.make_subscription()));
  }
  EXPECT_FALSE(z.index_active());
  z.add_subscription(make_stored(15, gen.make_subscription()));
  EXPECT_TRUE(z.index_active());

  // Raising the threshold drops back to the scan; lowering rebuilds.
  const Point p = gen.make_event().point;
  const auto with_index = match_of(z, p);
  z.set_index_threshold(kNever);
  EXPECT_FALSE(z.index_active());
  EXPECT_EQ(match_of(z, p), with_index);
  z.set_index_threshold(0);
  EXPECT_TRUE(z.index_active());
  EXPECT_EQ(match_of(z, p), with_index);
}

// A zone indexed in one pass at the end of a bulk scope and a zone indexed
// from its first subscription on (incremental inserts, doubling rebuilds)
// answer match() and cover lookups identically — vector for vector — and
// keep doing so through later routed adds and removals.
TEST(MatchIndexBuild, OneShotEqualsIncremental) {
  for (const bool cover : {false, true}) {
    workload::WorkloadGenerator gen(workload::table1_spec(), 44);
    ZoneState incremental(ZoneAddr{}, /*index_threshold=*/0, cover);
    ZoneState one_shot(ZoneAddr{}, ZoneState::kDefaultIndexThreshold, cover);
    Rng rng(45);
    std::vector<StoredSub> stored;
    const auto next_sub = [&] {
      // Every fourth range repeats an earlier one, so cover aggregation
      // has duplicates to quench.
      const auto sub = !stored.empty() && rng.chance(0.25)
                           ? stored[rng.index(stored.size())].sub
                           : gen.make_subscription();
      stored.push_back(make_stored(stored.size(), sub));
      return stored.back();
    };

    ASSERT_TRUE(one_shot.begin_bulk());
    EXPECT_FALSE(one_shot.begin_bulk());  // already inside a scope
    for (int i = 0; i < 1500; ++i) {
      const StoredSub s = next_sub();
      EXPECT_EQ(incremental.add_subscription(s), one_shot.add_subscription(s));
    }
    EXPECT_FALSE(one_shot.index_active());  // pending: queries scan
    const Point probe = gen.make_event().point;
    EXPECT_EQ(match_of(one_shot, probe), match_of(incremental, probe));
    one_shot.end_bulk();
    ASSERT_TRUE(one_shot.index_active());
    ASSERT_TRUE(incremental.index_active());

    const auto expect_same = [&](const char* what) {
      EXPECT_EQ(owners_of(one_shot), owners_of(incremental)) << what;
      EXPECT_EQ(one_shot.cover_representatives(),
                incremental.cover_representatives())
          << what;
      EXPECT_EQ(one_shot.cover_quenched(), incremental.cover_quenched())
          << what;
      EXPECT_EQ(one_shot.summary(), incremental.summary()) << what;
      for (int e = 0; e < 100; ++e) {
        const Point p = gen.make_event().point;
        ASSERT_EQ(match_of(one_shot, p), match_of(incremental, p))
            << what << " cover=" << cover << " event " << e;
      }
    };
    expect_same("after build");
    if (cover) {
      EXPECT_GT(one_shot.cover_quenched(), 0u);
    }

    // Routed adds after the build go through find_coverer on the index.
    for (int i = 0; i < 300; ++i) {
      const StoredSub s = next_sub();
      EXPECT_EQ(incremental.add_subscription(s), one_shot.add_subscription(s));
    }
    expect_same("after routed adds");

    for (std::size_t i = 0; i < stored.size(); i += 2) {
      EXPECT_EQ(incremental.remove_subscription(stored[i].owner).has_value(),
                one_shot.remove_subscription(stored[i].owner).has_value());
    }
    expect_same("after removals");
  }
}

// A bulk scope on a zone that is already indexed keeps it indexed, even
// below the threshold (the index's hysteresis), and rebuilds it once.
TEST(MatchIndexBuild, BulkScopeOnIndexedZoneRebuildsOnce) {
  workload::WorkloadGenerator gen(workload::table1_spec(), 46);
  ZoneState z(ZoneAddr{}, /*index_threshold=*/64);
  ZoneState linear(ZoneAddr{}, kNever);
  std::vector<StoredSub> stored;
  for (std::size_t i = 0; i < 64; ++i) {
    stored.push_back(make_stored(i, gen.make_subscription()));
    z.add_subscription(stored.back());
    linear.add_subscription(stored.back());
  }
  ASSERT_TRUE(z.index_active());
  for (std::size_t i = 0; i < 40; ++i) {
    z.remove_subscription(stored[i].owner);
    linear.remove_subscription(stored[i].owner);
  }
  ASSERT_TRUE(z.index_active());  // 24 subs, still indexed
  ASSERT_TRUE(z.begin_bulk());
  EXPECT_FALSE(z.index_active());
  for (std::size_t i = 64; i < 70; ++i) {
    stored.push_back(make_stored(i, gen.make_subscription()));
    z.add_subscription(stored.back());
    linear.add_subscription(stored.back());
  }
  z.end_bulk();
  EXPECT_TRUE(z.index_active());
  for (int e = 0; e < 100; ++e) {
    const Point p = gen.make_event().point;
    ASSERT_EQ(match_of(z, p), match_of(linear, p)) << "event " << e;
  }
}

// bulk_subscribe with cover aggregation on quenches exactly as routed
// installs do when those arrive in batch order (each drained before the
// next): every zone ends with the same representatives, the same coverees
// under each, and the same index state — and delivers the same events.
TEST(MatchIndexBuild, BulkSubscribeQuenchesLikeRoutedInstalls) {
  constexpr std::size_t kHosts = 24;
  struct Stack {
    net::KingLikeTopology topo;
    sim::Simulator sim;
    net::Network net;
    chord::ChordNet chord;
    core::HyperSubSystem sys;
    std::uint32_t scheme = 0;

    static net::KingLikeTopology::Params topo_params() {
      net::KingLikeTopology::Params tp;
      tp.hosts = kHosts;
      tp.seed = 31;
      return tp;
    }
    static chord::ChordNet::Params chord_params() {
      chord::ChordNet::Params cp;
      cp.seed = 31;
      return cp;
    }
    static core::HyperSubSystem::Config sys_config() {
      core::HyperSubSystem::Config cfg;
      cfg.bootstrap = core::BootstrapMode::kOracle;
      cfg.cover_aggregation = true;
      cfg.match_index_threshold = 8;
      return cfg;
    }
    Stack()
        : topo(topo_params()),
          net(sim, topo),
          chord(net, chord_params()),
          sys(chord, sys_config()) {
      workload::WorkloadGenerator gen(workload::table1_spec(), 32);
      core::SchemeOptions opt;
      opt.zone_cfg = {1, 20};
      scheme = sys.add_scheme(gen.scheme(), opt);
    }
  };
  const auto make_batch = [] {
    workload::WorkloadGenerator gen(workload::table1_spec(), 32);
    (void)gen.scheme();
    Rng rng(33);
    std::vector<core::HyperSubSystem::BulkSub> batch;
    for (int i = 0; i < 400; ++i) {
      // A third repeat an earlier range from another subscriber.
      const auto sub = !batch.empty() && rng.chance(0.33)
                           ? batch[rng.index(batch.size())].sub
                           : gen.make_subscription();
      batch.push_back({net::HostIndex(rng.index(kHosts)), sub});
    }
    return batch;
  };

  Stack routed;
  for (auto& b : make_batch()) {
    routed.sys.subscribe(b.subscriber, routed.scheme, b.sub);
    routed.sim.run();
  }
  Stack bulk;
  bulk.sys.bulk_subscribe(bulk.scheme, make_batch());

  std::size_t quenched = 0;
  std::size_t indexed = 0;
  for (net::HostIndex h = 0; h < kHosts; ++h) {
    const auto& want = routed.sys.node(h).zones();
    const auto& got = bulk.sys.node(h).zones();
    for (const auto& [addr, z] : want) {
      if (z.subscription_count() == 0) continue;
      const auto it = got.find(addr);
      ASSERT_NE(it, got.end()) << "host " << h;
      EXPECT_EQ(owners_of(it->second), owners_of(z)) << "host " << h;
      EXPECT_EQ(it->second.cover_quenched(), z.cover_quenched());
      EXPECT_EQ(it->second.index_active(), z.index_active());
      quenched += z.cover_quenched();
      indexed += z.index_active() ? 1 : 0;
    }
    for (const auto& [addr, z] : got) {
      if (z.subscription_count() == 0) continue;
      EXPECT_TRUE(want.contains(addr)) << "host " << h;
    }
  }
  EXPECT_GT(quenched, 0u);
  EXPECT_GT(indexed, 0u);
  EXPECT_TRUE(bulk.sys.check_zone_invariants());

  const auto deliver = [](Stack& s) {
    workload::WorkloadGenerator gen(workload::table1_spec(), 34);
    (void)gen.scheme();
    Rng rng(35);
    for (int e = 0; e < 20; ++e) {
      s.sys.publish(net::HostIndex(rng.index(kHosts)), s.scheme,
                    gen.make_event());
    }
    s.sim.run();
    s.sys.finalize_events();
    std::multiset<std::pair<std::size_t, std::uint32_t>> got;
    for (const auto& d : s.sys.deliveries()) got.insert({d.subscriber, d.iid});
    return got;
  };
  const auto routed_deliveries = deliver(routed);
  EXPECT_FALSE(routed_deliveries.empty());
  EXPECT_EQ(deliver(bulk), routed_deliveries);
}

// -- removal path vs a reference model ----------------------------------------

// ZoneState's contract written out plainly: representatives in a vector in
// insertion order, each with its coverees in quench order, and the summary
// an exact hull folded on demand.
class ReferenceZone {
 public:
  explicit ReferenceZone(bool cover) : cover_(cover) {}

  void add(const StoredSub& s) {
    if (cover_) {
      if (Rep* r = coverer(s.sub.range())) {
        r->coverees.push_back(s);
        return;
      }
    }
    reps_.push_back({s, {}});
  }

  std::optional<StoredSub> remove(const SubId& owner) {
    for (std::size_t i = 0; i < reps_.size(); ++i) {
      if (reps_[i].sub.owner != owner) continue;
      Rep gone = std::move(reps_[i]);
      reps_.erase(reps_.begin() + std::ptrdiff_t(i));
      for (const StoredSub& o : gone.coverees) rehome(o);
      return gone.sub;
    }
    for (Rep& r : reps_) {
      for (std::size_t j = 0; j < r.coverees.size(); ++j) {
        if (r.coverees[j].owner != owner) continue;
        StoredSub out = r.coverees[j];
        r.coverees.erase(r.coverees.begin() + std::ptrdiff_t(j));
        return out;
      }
    }
    return std::nullopt;
  }

  std::vector<StoredSub> extract(Id lo, Id hi) {
    const auto leaves = [&](const StoredSub& s) {
      return ring::in_closed_open(s.owner.target, lo, hi);
    };
    std::vector<StoredSub> out, leaving_coverees, orphans;
    std::vector<Rep> kept;
    for (Rep& r : reps_) {
      std::vector<StoredSub> stay;
      for (const StoredSub& c : r.coverees) {
        if (leaves(c)) {
          leaving_coverees.push_back(c);
        } else {
          stay.push_back(c);
        }
      }
      if (leaves(r.sub)) {
        out.push_back(r.sub);
        orphans.insert(orphans.end(), stay.begin(), stay.end());
      } else {
        kept.push_back({r.sub, std::move(stay)});
      }
    }
    reps_ = std::move(kept);
    out.insert(out.end(), leaving_coverees.begin(), leaving_coverees.end());
    for (const StoredSub& o : orphans) rehome(o);
    return out;
  }

  void set_piece(const HyperRect& piece) { piece_ = piece; }
  void add_bucket(const core::MigratedBucket& b) { buckets_.push_back(b); }

  HyperRect hull() const {
    HyperRect h;
    for (const Rep& r : reps_) h = h.hull(r.sub.projected);
    h = h.hull(piece_);
    for (const auto& b : buckets_) h = h.hull(b.summary);
    return h;
  }

  std::vector<SubId> match(const Point& full, const Point& projected) const {
    std::vector<SubId> out;
    for (const Rep& r : reps_) {
      if (!r.sub.sub.matches(full)) continue;
      out.push_back(r.sub.owner);
      for (const StoredSub& c : r.coverees) {
        if (c.sub.matches(full)) out.push_back(c.owner);
      }
    }
    if (!piece_.empty() && piece_.contains(projected)) {
      out.push_back(SubId{Id{42}, 0, SubIdKind::kZone});
    }
    for (const auto& b : buckets_) {
      if (b.summary.contains(projected)) out.push_back(b.pointer);
    }
    return out;
  }

  std::vector<SubId> owners() const {
    std::vector<SubId> out;
    for (const Rep& r : reps_) {
      out.push_back(r.sub.owner);
      for (const StoredSub& c : r.coverees) out.push_back(c.owner);
    }
    return out;
  }

  std::size_t reps() const { return reps_.size(); }
  std::size_t size() const {
    std::size_t n = reps_.size();
    for (const Rep& r : reps_) n += r.coverees.size();
    return n;
  }
  /// Every stored subscription, representatives and coverees.
  std::vector<StoredSub> all() const {
    std::vector<StoredSub> out;
    for (const Rep& r : reps_) {
      out.push_back(r.sub);
      out.insert(out.end(), r.coverees.begin(), r.coverees.end());
    }
    return out;
  }

 private:
  struct Rep {
    StoredSub sub;
    std::vector<StoredSub> coverees;
  };

  Rep* coverer(const HyperRect& full) {
    for (Rep& r : reps_) {
      if (r.sub.sub.range().covers(full)) return &r;
    }
    return nullptr;
  }
  void rehome(const StoredSub& s) {
    if (Rep* r = coverer(s.sub.range())) {
      r->coverees.push_back(s);
    } else {
      reps_.push_back({s, {}});
    }
  }

  bool cover_;
  std::vector<Rep> reps_;
  HyperRect piece_;
  std::vector<core::MigratedBucket> buckets_;
};

// Random ZoneState churn against ReferenceZone. Coordinates sit on a coarse
// grid and a third of the intervals are domain-bound wildcards, so many
// subscriptions share each summary face; a lone extreme subscription is
// also added and removed, so the last face-holder leaves too. After every
// operation the zone must agree with the model: summary (maintained and
// refolded), match() sequence, stored owners in order, and counts.
TEST(RemovalPath, ChurnMatchesReferenceModel) {
  constexpr double kMax = 100.0;
  struct Case {
    std::size_t threshold;
    bool cover;
  };
  for (const Case c : {Case{kNever, false}, Case{kNever, true}, Case{0, false},
                       Case{0, true}, Case{24, false}, Case{24, true}}) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      Rng rng(seed * 1000 + c.threshold % 97 + (c.cover ? 7 : 0));
      auto zone =
          std::make_unique<ZoneState>(ZoneAddr{}, c.threshold, c.cover);
      ReferenceZone model(c.cover);
      std::uint32_t next_iid = 0;
      HyperRect piece;
      std::size_t largest = 0;
      const std::string where = "threshold " + std::to_string(c.threshold) +
                                " cover " + std::to_string(c.cover) +
                                " seed " + std::to_string(seed);

      const auto grid = [&] { return 5.0 * double(rng.index(21)); };
      const auto interval = [&](bool wide) {
        if (wide || rng.chance(0.33)) {
          // Domain-bound wildcard (or half-wildcard): shares faces.
          const double a = rng.chance(0.5) ? 0.0 : grid();
          const double b = rng.chance(0.5) ? kMax : grid();
          return Interval{std::min(a, b), std::max(a, b)};
        }
        const double a = grid();
        const double b = grid();
        return Interval{std::min(a, b), std::max(a, b)};
      };
      const auto make = [&](bool wide) {
        std::vector<Interval> full;
        for (int d = 0; d < 3; ++d) full.push_back(interval(wide));
        // The projection keeps the first two attributes, like a subscheme.
        const HyperRect projected({full[0], full[1]});
        const Id owner = rng.next_u64();
        return StoredSub{SubId{owner, next_iid++, SubIdKind::kSubscriber},
                         pubsub::Subscription(HyperRect(full)), projected};
      };
      const auto add = [&](const StoredSub& s) {
        zone->add_subscription(s);
        model.add(s);
      };
      const auto remove = [&](const SubId& owner) {
        const auto got = zone->remove_subscription(owner);
        const auto want = model.remove(owner);
        ASSERT_EQ(got.has_value(), want.has_value()) << where;
        if (want) {
          EXPECT_EQ(got->owner, want->owner) << where;
          EXPECT_EQ(got->projected, want->projected) << where;
          EXPECT_EQ(got->sub.range(), want->sub.range()) << where;
        }
      };
      const auto check = [&](int step) {
        ASSERT_EQ(zone->summary(), zone->exact_summary())
            << where << " step " << step;
        ASSERT_EQ(zone->summary(), model.hull()) << where << " step " << step;
        ASSERT_EQ(owners_of(*zone), model.owners())
            << where << " step " << step;
        ASSERT_EQ(zone->subscription_count(), model.size()) << where;
        ASSERT_EQ(zone->cover_representatives(), model.reps()) << where;
        for (int e = 0; e < 6; ++e) {
          const Point full{grid(), grid(), grid()};
          const Point projected{full[0], full[1]};
          std::vector<SubId> got;
          zone->match(full, projected, got);
          ASSERT_EQ(got, model.match(full, projected))
              << where << " step " << step << " event " << e;
        }
      };

      for (int step = 0; step < 1500; ++step) {
        const double op = rng.uniform(0.0, 1.0);
        const auto stored = model.all();
        if (op < 0.48 || stored.empty()) {
          add(make(false));
        } else if (op < 0.70) {
          remove(stored[rng.index(stored.size())].owner);
        } else if (op < 0.72) {
          remove(SubId{rng.next_u64(), 0, SubIdKind::kSubscriber});  // absent
        } else if (op < 0.74) {
          // A second entry under an existing owner: removal must take the
          // one the scan order reaches first.
          StoredSub dup = make(false);
          dup.owner = stored[rng.index(stored.size())].owner;
          add(dup);
        } else if (op < 0.78) {
          // The last holder of a face leaves: one extreme subscription in,
          // then out again.
          StoredSub lone = make(false);
          std::vector<Interval> full = lone.sub.range().dims();
          full[0] = Interval{-1.0 - double(step), kMax + 1.0};
          lone.sub = pubsub::Subscription(HyperRect(full));
          lone.projected = HyperRect({full[0], full[1]});
          add(lone);
          check(step);
          remove(lone.owner);
        } else if (op < 0.88) {
          // Parent piece: grow (covers the old one), replace or clear.
          const double k = rng.uniform(0.0, 1.0);
          if (k < 0.15) {
            piece = HyperRect{};
          } else if (k < 0.5 && !piece.empty()) {
            piece = piece.hull(HyperRect({interval(false), interval(false)}));
          } else {
            piece = HyperRect({interval(false), interval(false)});
          }
          const HyperRect before = zone->summary();
          const bool changed = zone->set_parent_piece(piece, Id{42});
          model.set_piece(piece);
          EXPECT_EQ(changed, !(zone->summary() == before)) << where;
        } else if (op < 0.90) {
          const core::MigratedBucket b{
              HyperRect({interval(false), interval(false)}),
              {},
              SubId{rng.next_u64(), next_iid++, SubIdKind::kMigrated}};
          zone->add_migrated_bucket(b);
          model.add_bucket(b);
        } else if (op < 0.92) {
          const Id lo = rng.next_u64();
          const Id hi = lo + (~Id{0} / 4);
          const auto got = zone->extract_subscribers_in_arc(lo, hi);
          const auto want = model.extract(lo, hi);
          ASSERT_EQ(got.size(), want.size()) << where;
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].owner, want[i].owner) << where;
          }
        } else if (op < 0.94) {
          common::ByteWriter w;
          zone->save(w);
          const auto bytes = w.take();
          auto copy =
              std::make_unique<ZoneState>(ZoneAddr{}, c.threshold, c.cover);
          common::ByteReader r(bytes);
          copy->restore(r);
          EXPECT_EQ(copy->fingerprint(), zone->fingerprint()) << where;
          EXPECT_EQ(copy->index_active(), zone->index_active()) << where;
          zone = std::move(copy);
        } else if (op < 0.96) {
          // Drain: remove a run of subscriptions back to back, which
          // crosses the tombstone compaction point (and sometimes empties
          // the zone).
          for (std::size_t i = 0; i < stored.size(); ++i) {
            if (rng.chance(0.7)) remove(stored[i].owner);
          }
        } else {
          for (int i = 0; i < 20; ++i) add(make(false));
        }
        check(step);
        largest = std::max(largest, model.size());
      }
      // The run reached zones well past the index threshold.
      EXPECT_GT(largest, 100u) << where;
    }
  }
}

// -- end-to-end ---------------------------------------------------------------

// Full-system delivery with the index forced on everywhere (threshold 1)
// must equal brute force over the live subscriptions — the existing
// delivery-exactness property, now exercising the indexed path.
TEST(MatchIndexParity, EndToEndDeliveryEqualsBruteForce) {
  const std::size_t n = 40;
  net::KingLikeTopology::Params tp;
  tp.hosts = n;
  tp.seed = 9;
  net::KingLikeTopology topo(tp);
  sim::Simulator sim;
  net::Network net(sim, topo);
  chord::ChordNet::Params cp;
  cp.seed = 9;
  chord::ChordNet chord(net, cp);
  core::HyperSubSystem::Config cfg;
  cfg.bootstrap = core::BootstrapMode::kOracle;
  cfg.match_index_threshold = 1;
  core::HyperSubSystem sys(chord, cfg);
  workload::WorkloadGenerator gen(workload::table1_spec(), 99);
  core::SchemeOptions opt;
  opt.zone_cfg = {1, 20};
  const auto scheme = sys.add_scheme(gen.scheme(), opt);

  struct Owned {
    net::HostIndex host;
    std::uint32_t iid;
    pubsub::Subscription sub;
  };
  std::vector<Owned> live;
  Rng rng(123);
  for (int i = 0; i < 300; ++i) {
    const auto host = net::HostIndex(rng.index(n));
    const auto sub = gen.make_subscription();
    live.push_back({host, sys.subscribe(host, scheme, sub).iid, sub});
  }
  sim.run();

  for (int e = 0; e < 10; ++e) {
    const std::size_t before = sys.deliveries().size();
    auto ev = gen.make_event();
    sys.publish(net::HostIndex(rng.index(n)), scheme, ev);
    sim.run();
    sys.finalize_events();

    std::multiset<std::pair<std::size_t, std::uint32_t>> got, expect;
    for (std::size_t i = before; i < sys.deliveries().size(); ++i) {
      got.insert({sys.deliveries()[i].subscriber, sys.deliveries()[i].iid});
    }
    for (const auto& o : live) {
      if (o.sub.matches(ev.point)) expect.insert({o.host, o.iid});
    }
    ASSERT_EQ(got, expect) << "event " << e;
  }
  EXPECT_TRUE(sys.check_zone_invariants());
}

}  // namespace
}  // namespace hypersub
