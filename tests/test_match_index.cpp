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
#include <set>

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
