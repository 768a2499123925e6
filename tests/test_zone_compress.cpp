// Compact zone-tree tests: piece-only zones stored as PieceZone records.
// The records must be an invisible representation change: every
// observable — the per-zone content digest (materialized zones + records),
// the delivery sets, the zone invariants, join/leave transfer, checkpoint
// images (including multi-zone frames from older writers), and same-seed
// byte identity — matches the uncompressed tree, while the zone-tree
// footprint shrinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "chord/chord_net.hpp"
#include "common/wire.hpp"
#include "core/hypersub_system.hpp"
#include "core/state_wire.hpp"
#include "net/topology.hpp"
#include "runner/checkpoint.hpp"
#include "trace/tracer.hpp"
#include "workload/scheme_factory.hpp"
#include "workload/zipf_workload.hpp"

namespace hypersub {
namespace {

struct StackOpts {
  std::size_t hosts = 32;
  std::uint64_t seed = 1;
  bool compress = true;
  core::BootstrapMode bootstrap = core::BootstrapMode::kOracle;
};

struct Stack {
  std::unique_ptr<net::KingLikeTopology> topo;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<chord::ChordNet> chord;
  std::unique_ptr<core::HyperSubSystem> sys;
  std::unique_ptr<workload::WorkloadGenerator> gen;
  std::uint32_t scheme = 0;
};

Stack make_stack(const StackOpts& o) {
  Stack s;
  net::KingLikeTopology::Params tp;
  tp.hosts = o.hosts;
  tp.seed = o.seed;
  s.topo = std::make_unique<net::KingLikeTopology>(tp);
  s.sim = std::make_unique<sim::Simulator>();
  s.net = std::make_unique<net::Network>(*s.sim, *s.topo);
  chord::ChordNet::Params cp;
  cp.seed = o.seed;
  s.chord = std::make_unique<chord::ChordNet>(*s.net, cp);
  core::HyperSubSystem::Config sc;
  sc.bootstrap = o.bootstrap;
  sc.compress_zone_chains = o.compress;
  s.sys = std::make_unique<core::HyperSubSystem>(*s.chord, sc);
  s.gen = std::make_unique<workload::WorkloadGenerator>(workload::tiny_spec(),
                                                        o.seed + 100);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  s.scheme = s.sys->add_scheme(s.gen->scheme(), opt);
  return s;
}

using DeliveryRow = std::tuple<std::uint64_t, std::uint64_t, std::uint32_t>;
std::vector<DeliveryRow> delivery_set(const Stack& s) {
  std::vector<DeliveryRow> out;
  for (const auto& d : s.sys->deliveries()) {
    out.emplace_back(d.event_seq, std::uint64_t(d.subscriber), d.iid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t total_records(const Stack& s) {
  std::size_t n = 0;
  for (net::HostIndex h = 0; h < s.topo->size(); ++h) {
    n += s.sys->node(h).piece_zones().size();
  }
  return n;
}

core::HyperSubNode::ZoneMemoryBreakdown total_breakdown(const Stack& s) {
  core::HyperSubNode::ZoneMemoryBreakdown sum{};
  for (net::HostIndex h = 0; h < s.topo->size(); ++h) {
    const auto mb = s.sys->node(h).memory_breakdown();
    sum.materialized_zones += mb.materialized_zones;
    sum.implicit_zones += mb.implicit_zones;
    sum.zone_bytes += mb.zone_bytes;
    sum.record_bytes += mb.record_bytes;
    sum.key_index_bytes += mb.key_index_bytes;
    sum.sub_bytes += mb.sub_bytes;
  }
  return sum;
}

// --- compressed vs uncompressed parity ------------------------------------

// Randomized subscribe/unsubscribe churn, replayed move-for-move on a
// compressed and an uncompressed stack. Every round the semantic zone
// digest (which folds records through synthesized fingerprints) must
// agree, and both trees must pass their own invariant audits. Unsubscribes
// shrink summaries, so the rounds exercise records shrinking, dropping,
// materializing under a new subscription, and turning back into records —
// at whatever boundary levels the workload happens to land on, across
// seeds.
TEST(ZoneCompress, ParityUnderSubscriptionChurn) {
  for (const std::uint64_t seed : {3ull, 11ull, 27ull}) {
    Stack on = make_stack({.seed = seed, .compress = true});
    Stack off = make_stack({.seed = seed, .compress = false});

    Rng rng(seed * 7 + 1);
    std::vector<core::SubscriptionHandle> hon, hoff;
    const auto parity = [&](const char* where) {
      EXPECT_TRUE(on.sys->check_zone_invariants()) << where << " seed=" << seed;
      EXPECT_TRUE(off.sys->check_zone_invariants()) << where << " seed=" << seed;
      EXPECT_EQ(on.sys->zone_content_digest(), off.sys->zone_content_digest())
          << where << " seed=" << seed;
    };

    // Round 1: dense install.
    for (int i = 0; i < 150; ++i) {
      const net::HostIndex h = net::HostIndex(rng.index(32));
      const auto sub_on = on.gen->make_subscription();
      const auto sub_off = off.gen->make_subscription();
      hon.push_back(on.sys->subscribe(h, on.scheme, sub_on));
      hoff.push_back(off.sys->subscribe(h, off.scheme, sub_off));
    }
    on.sim->run();
    off.sim->run();
    parity("install");
    EXPECT_GT(total_records(on), 0u) << "seed=" << seed;
    EXPECT_EQ(total_records(off), 0u) << "seed=" << seed;

    // Round 2: remove every other subscription — summaries shrink, pieces
    // retract, drained zones turn back into records.
    for (std::size_t i = 0; i < hon.size(); i += 2) {
      on.sys->unsubscribe(hon[i]);
      off.sys->unsubscribe(hoff[i]);
    }
    on.sim->run();
    off.sim->run();
    parity("half-removal");

    // Round 3: reinstall into the reshaped tree (materializes records).
    for (int i = 0; i < 60; ++i) {
      const net::HostIndex h = net::HostIndex(rng.index(32));
      const auto sub_on = on.gen->make_subscription();
      const auto sub_off = off.gen->make_subscription();
      hon.push_back(on.sys->subscribe(h, on.scheme, sub_on));
      hoff.push_back(off.sys->subscribe(h, off.scheme, sub_off));
    }
    on.sim->run();
    off.sim->run();
    parity("reinstall");

    // Identical event feed -> identical delivery sets.
    for (int i = 0; i < 20; ++i) {
      const net::HostIndex pub = net::HostIndex(rng.index(32));
      const auto ev_on = on.gen->make_event();
      const auto ev_off = off.gen->make_event();
      on.sys->publish(pub, on.scheme, ev_on);
      off.sys->publish(pub, off.scheme, ev_off);
    }
    on.sim->run();
    off.sim->run();
    on.sys->finalize_events();
    off.sys->finalize_events();
    EXPECT_EQ(delivery_set(on), delivery_set(off)) << "seed=" << seed;
  }
}

// Tearing everything down must dissolve the piece skeleton: after the last
// unsubscribe drains, no record (and no piece-bearing materialized zone)
// survives, on either representation.
TEST(ZoneCompress, FullTeardownDissolvesChains) {
  Stack on = make_stack({.seed = 9, .compress = true});
  Stack off = make_stack({.seed = 9, .compress = false});
  Rng rng(41);
  std::vector<core::SubscriptionHandle> hon, hoff;
  for (int i = 0; i < 100; ++i) {
    const net::HostIndex h = net::HostIndex(rng.index(32));
    const auto sub_on = on.gen->make_subscription();
    const auto sub_off = off.gen->make_subscription();
    hon.push_back(on.sys->subscribe(h, on.scheme, sub_on));
    hoff.push_back(off.sys->subscribe(h, off.scheme, sub_off));
  }
  on.sim->run();
  off.sim->run();
  ASSERT_GT(total_records(on), 0u);

  for (std::size_t i = 0; i < hon.size(); ++i) {
    on.sys->unsubscribe(hon[i]);
    off.sys->unsubscribe(hoff[i]);
  }
  on.sim->run();
  off.sim->run();
  EXPECT_TRUE(on.sys->check_zone_invariants());
  EXPECT_TRUE(off.sys->check_zone_invariants());
  EXPECT_EQ(total_records(on), 0u);
  EXPECT_EQ(on.sys->zone_content_digest(), off.sys->zone_content_digest());
}

// --- join/leave record transfer -------------------------------------------

// A graceful leave serializes the leaver's records to the successor; a
// protocol rejoin pulls the moved ones back. The host-independent content
// digest must ride through both handovers, and the invariant audit must
// hold at every stop.
TEST(ZoneCompress, JoinLeaveChainTransfer) {
  constexpr net::HostIndex kNode = 9;
  Stack s = make_stack({.seed = 5, .compress = true});
  Rng rng(29);
  for (int i = 0; i < 120; ++i) {
    s.sys->subscribe(net::HostIndex(rng.index(32)), s.scheme,
                     s.gen->make_subscription());
  }
  s.sim->run();
  ASSERT_GT(total_records(s), 0u);
  const std::uint64_t d0 = s.sys->zone_content_digest();

  s.sys->leave_node(kNode);
  s.sim->run();
  EXPECT_EQ(s.sys->join_stats().leaves_completed, 1u);
  EXPECT_TRUE(s.sys->check_zone_invariants());
  EXPECT_EQ(s.sys->zone_content_digest(), d0);

  s.chord->start_maintenance();
  s.sys->join_node(kNode, 0);
  s.sim->run_until(s.sim->now() + 30000.0);
  s.chord->stop_maintenance();
  s.sim->run();
  EXPECT_FALSE(s.sys->transfer_active());
  EXPECT_EQ(s.sys->join_stats().joins_committed, 1u);
  EXPECT_GT(s.sys->join_stats().zones_transferred, 0u);
  EXPECT_TRUE(s.sys->check_zone_invariants());
  EXPECT_EQ(s.sys->zone_content_digest(), d0);
}

// --- checkpoint round-trip ------------------------------------------------

// A checkpoint taken from a compressed tree restores into an identical
// tree: same digest, same invariants, and an immediate re-checkpoint of
// the restored stack reproduces the blob byte-for-byte.
TEST(ZoneCompress, CheckpointRoundTrip) {
  const StackOpts base{.seed = 13, .compress = true};
  Stack s = make_stack(base);
  Rng rng(47);
  std::vector<std::pair<net::HostIndex, pubsub::Event>> events;
  for (int i = 0; i < 90; ++i) {
    s.sys->subscribe(net::HostIndex(rng.index(32)), s.scheme,
                     s.gen->make_subscription());
  }
  for (int i = 0; i < 15; ++i) {
    events.emplace_back(net::HostIndex(rng.index(32)), s.gen->make_event());
  }
  s.sim->run();
  ASSERT_GT(total_records(s), 0u);
  const auto blob = runner::checkpoint(*s.sys);

  StackOpts ropts = base;
  ropts.bootstrap = core::BootstrapMode::kNone;
  Stack r = make_stack(ropts);
  runner::restore(*r.sys, blob);
  EXPECT_TRUE(r.sys->check_zone_invariants());
  EXPECT_EQ(r.sys->zone_content_digest(), s.sys->zone_content_digest());
  EXPECT_EQ(total_records(r), total_records(s));
  EXPECT_EQ(runner::checkpoint(*r.sys), blob);

  // The restored tree behaves identically under an identical event feed.
  for (const auto& [pub, ev] : events) {
    s.sys->publish(pub, s.scheme, ev);
    r.sys->publish(pub, r.scheme, ev);
  }
  s.sim->run();
  r.sim->run();
  s.sys->finalize_events();
  r.sys->finalize_events();
  EXPECT_EQ(delivery_set(s), delivery_set(r));
}

// An image written by an uncompressed run (all zones materialized, empty
// piece-zone sections) must restore cleanly into a compression-enabled
// system: the representations interoperate at the wire level, and the
// restored tree still matches the writer's digest. The same holds for a
// piece-zone section holding a multi-zone frame, the run encoding earlier
// writers used for piece-only zones along one parent path: the reader
// expands it into one record per level.
TEST(ZoneCompress, UncompressedImageRestoresIntoCompressedSystem) {
  const StackOpts wopts{.seed = 17, .compress = false};
  Stack w = make_stack(wopts);
  Rng rng(53);
  for (int i = 0; i < 80; ++i) {
    w.sys->subscribe(net::HostIndex(rng.index(32)), w.scheme,
                     w.gen->make_subscription());
  }
  w.sim->run();
  const auto blob = runner::checkpoint(*w.sys);

  StackOpts ropts{.seed = 17, .compress = true};
  ropts.bootstrap = core::BootstrapMode::kNone;
  Stack r = make_stack(ropts);
  runner::restore(*r.sys, blob);
  EXPECT_TRUE(r.sys->check_zone_invariants());
  EXPECT_EQ(r.sys->zone_content_digest(), w.sys->zone_content_digest());

  // Find a piece-only zone and its rightmost child, also piece-only: the
  // child shares the parent's rotated key, so both sit on one host.
  const core::Subscheme& ss = r.sys->scheme_runtime(r.scheme).subscheme(0);
  const lph::ZoneSystem& zsys = ss.zones();
  const auto piece_only = [](const core::ZoneState& z) {
    return z.subscription_count() == 0 && z.buckets().empty() &&
           z.has_parent_piece() && !z.parent_piece()->first.empty();
  };
  net::HostIndex host = 0;
  core::ZoneAddr head, tail;
  bool found = false;
  for (net::HostIndex h = 0; h < r.topo->size() && !found; ++h) {
    const auto& zones = r.sys->node(h).zones();
    for (const auto& [addr, z] : zones) {
      if (addr.zone.level < 1 || zsys.is_leaf(addr.zone) || !piece_only(z))
        continue;
      const core::ZoneAddr child{addr.scheme, addr.subscheme,
                                 zsys.child(addr.zone, zsys.base() - 1)};
      const auto cit = zones.find(child);
      if (cit == zones.end() || !piece_only(cit->second)) continue;
      host = h;
      head = addr;
      tail = child;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no piece-only parent/child pair on one host";
  core::HyperSubNode& nd = r.sys->node(host);
  const Id key = ss.zone_key(head.zone);
  ASSERT_EQ(key, ss.zone_key(tail.zone));
  const auto [head_piece, head_parent_key] =
      *nd.zones().at(head).parent_piece();

  // Drop both zones from the host, image it, and put them back as one
  // span-2 frame in the image's piece-zone section. The image ends with
  // that section (empty here) and the migrated-bucket section (empty).
  nd.erase_zone(head, key);
  nd.erase_zone(tail, key);
  std::vector<std::uint8_t> image = r.sys->snapshot_node(host);
  ASSERT_GE(image.size(), 8u);
  ASSERT_TRUE(std::all_of(image.end() - 8, image.end(),
                          [](std::uint8_t b) { return b == 0; }));
  image.resize(image.size() - 8);
  common::ByteWriter frame;
  frame.u32(1);  // one frame
  frame.u32(tail.scheme);
  frame.u32(tail.subscheme);
  frame.u64(tail.zone.code);
  frame.u32(std::uint32_t(tail.zone.level));
  frame.u32(2);  // span: head and tail
  core::save_rect(frame, head_piece);
  frame.u64(head_parent_key);
  frame.u64(key);  // per-level keys, head first
  frame.u64(key);
  frame.u32(0);  // no migrated buckets
  const std::vector<std::uint8_t> tail_bytes = frame.take();
  image.insert(image.end(), tail_bytes.begin(), tail_bytes.end());

  common::ByteReader in(image);
  const std::uint32_t version = in.u32();
  nd.restore(in, version,
             [&](std::uint32_t sc, std::uint32_t ssi) -> const lph::ZoneSystem& {
               return r.sys->scheme_runtime(sc).subscheme(ssi).zones();
             });
  EXPECT_EQ(nd.piece_zones().size(), 2u);
  ASSERT_NE(nd.piece_zones().find(head, key), nullptr);
  ASSERT_NE(nd.piece_zones().find(tail, key), nullptr);
  EXPECT_EQ(nd.piece_zones().find(tail, key)->parent_key, key);
  EXPECT_TRUE(r.sys->check_zone_invariants());
  EXPECT_EQ(r.sys->zone_content_digest(), w.sys->zone_content_digest());

  // Both trees deliver identically under one event feed.
  for (int i = 0; i < 20; ++i) {
    const net::HostIndex pub = net::HostIndex(rng.index(32));
    const pubsub::Event ev = w.gen->make_event();
    w.sys->publish(pub, w.scheme, ev);
    r.sys->publish(pub, r.scheme, ev);
  }
  w.sim->run();
  r.sim->run();
  w.sys->finalize_events();
  r.sys->finalize_events();
  EXPECT_FALSE(delivery_set(w).empty());
  EXPECT_EQ(delivery_set(r), delivery_set(w));
}

// A record and a materialized ZoneState at one address are two copies of
// one zone; the audit must reject that even when both carry the same
// piece, and accept the tree again once the copy is gone.
TEST(ZoneCompress, RecordShadowedByZoneStateFailsAudit) {
  Stack s = make_stack({.seed = 19, .compress = true});
  Rng rng(67);
  for (int i = 0; i < 60; ++i) {
    s.sys->subscribe(net::HostIndex(rng.index(32)), s.scheme,
                     s.gen->make_subscription());
  }
  s.sim->run();
  ASSERT_TRUE(s.sys->check_zone_invariants());

  const lph::ZoneSystem& zsys =
      s.sys->scheme_runtime(s.scheme).subscheme(0).zones();
  for (net::HostIndex h = 0; h < s.topo->size(); ++h) {
    core::HyperSubNode& nd = s.sys->node(h);
    if (nd.piece_zones().empty()) continue;
    core::PieceZone rec;
    nd.piece_zones().for_each([&](const core::PieceZone& z) {
      if (rec.piece.empty()) rec = z;
    });
    core::ZoneState& copy = nd.zone_state(rec.addr, rec.key);
    if (!zsys.is_leaf(rec.addr.zone)) {
      for (int d = 0; d < zsys.base(); ++d) {
        const HyperRect ext = zsys.extent(zsys.child(rec.addr.zone, d));
        if (rec.piece.overlaps(ext)) {
          copy.set_child_piece(d, rec.piece.intersect(ext));
        }
      }
    }
    copy.set_parent_piece(rec.piece, rec.parent_key);
    EXPECT_FALSE(s.sys->check_zone_invariants());
    nd.erase_zone(rec.addr, rec.key);
    EXPECT_TRUE(s.sys->check_zone_invariants());
    return;
  }
  FAIL() << "no piece-zone record formed";
}

// A piece record moved to a host that does not own its key fails the
// cross-node audit, as long as exactly one live node claims the key. When a
// stale predecessor makes a second node claim it, ownership is ambiguous
// and the audit skips the key; an irregular claim that stops short of the
// key leaves the owner unique again.
TEST(ZoneCompress, MisplacedRecordFailsAuditUnlessOwnershipAmbiguous) {
  Stack s = make_stack({.seed = 23, .compress = true});
  Rng rng(71);
  for (int i = 0; i < 60; ++i) {
    s.sys->subscribe(net::HostIndex(rng.index(32)), s.scheme,
                     s.gen->make_subscription());
  }
  s.sim->run();
  ASSERT_TRUE(s.sys->check_zone_invariants());

  const auto ring = s.chord->oracle_ring();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const net::HostIndex h = ring[i].host;
    core::HyperSubNode& nd = s.sys->node(h);
    if (nd.piece_zones().empty()) continue;
    core::PieceZone rec;
    nd.piece_zones().for_each([&](const core::PieceZone& z) {
      if (rec.piece.empty() && z.key != ring[i].id) rec = z;
    });
    if (rec.piece.empty()) continue;
    const chord::NodeRef next = ring[(i + 1) % ring.size()];
    const chord::NodeRef prev = ring[(i + ring.size() - 1) % ring.size()];
    core::HyperSubNode& other = s.sys->node(next.host);
    chord::ChordNode& other_chord = s.chord->node(next.host);

    other.piece_zones().insert(*nd.piece_zones().take(rec.addr, rec.key));
    EXPECT_FALSE(s.sys->check_zone_invariants()) << "misplaced";

    other_chord.set_predecessor(prev);  // next now claims h's keys too
    EXPECT_TRUE(s.sys->check_zone_invariants()) << "ambiguous owner";

    // next's predecessor is now no live node: it claims (h + 1, next].
    other_chord.set_predecessor(chord::NodeRef{ring[i].id + 1, h});
    EXPECT_FALSE(s.sys->check_zone_invariants()) << "unique owner again";

    other_chord.set_predecessor(ring[i]);
    nd.piece_zones().insert(*other.piece_zones().take(rec.addr, rec.key));
    EXPECT_TRUE(s.sys->check_zone_invariants()) << "restored";
    return;
  }
  FAIL() << "no piece-zone record formed";
}

// --- determinism ----------------------------------------------------------

// The byte-identity contract survives compression: the same scripted run
// twice produces byte-identical checkpoints and identical delivery sets.
TEST(ZoneCompress, DeterminismWithCompression) {
  std::vector<std::uint8_t> reference;
  std::vector<DeliveryRow> ref_deliveries;
  for (int run = 0; run < 2; ++run) {
    Stack s = make_stack({.seed = 21, .compress = true});
    Rng rng(59);
    std::vector<std::pair<net::HostIndex, pubsub::Subscription>> subs;
    for (int i = 0; i < 70; ++i) {
      subs.emplace_back(net::HostIndex(rng.index(32)),
                        s.gen->make_subscription());
    }
    std::vector<std::pair<net::HostIndex, pubsub::Event>> events;
    for (int i = 0; i < 16; ++i) {
      events.emplace_back(net::HostIndex(rng.index(32)), s.gen->make_event());
    }
    for (const auto& [h, sub] : subs) s.sys->subscribe(h, s.scheme, sub);
    s.sim->run();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const auto& [pub, ev] = events[i];
      s.sim->schedule_at(20000.0 + 5000.0 * double(i),
                         [&s, pub, ev] { s.sys->publish(pub, s.scheme, ev); });
    }
    s.sim->run();
    s.sys->finalize_events();
    EXPECT_GT(total_records(s), 0u);
    const auto blob = runner::checkpoint(*s.sys);
    const auto del = delivery_set(s);
    if (reference.empty()) {
      reference = blob;
      ref_deliveries = del;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(blob, reference);
      EXPECT_EQ(del, ref_deliveries);
    }
  }
}

// --- the memory claim itself ----------------------------------------------

// Same workload, both representations: the compressed tree must be
// strictly smaller (records replace materialized piece-only zones and
// their key-index entries), records must actually exist, and content must
// agree.
TEST(ZoneCompress, CompressedTreeIsSmaller) {
  Stack on = make_stack({.seed = 33, .compress = true});
  Stack off = make_stack({.seed = 33, .compress = false});
  Rng rng(61);
  for (int i = 0; i < 300; ++i) {
    const net::HostIndex h = net::HostIndex(rng.index(32));
    const auto sub_on = on.gen->make_subscription();
    const auto sub_off = off.gen->make_subscription();
    on.sys->subscribe(h, on.scheme, sub_on);
    off.sys->subscribe(h, off.scheme, sub_off);
  }
  on.sim->run();
  off.sim->run();

  const auto mon = total_breakdown(on);
  const auto moff = total_breakdown(off);
  EXPECT_GT(mon.implicit_zones, 0u);
  EXPECT_EQ(moff.implicit_zones, 0u);
  // Every record is one materialized zone the uncompressed tree pays full
  // price for.
  EXPECT_EQ(mon.materialized_zones + mon.implicit_zones,
            moff.materialized_zones);
  EXPECT_LT(mon.zone_tree_bytes(), moff.zone_tree_bytes());
  EXPECT_EQ(on.sys->zone_content_digest(), off.sys->zone_content_digest());
}

}  // namespace
}  // namespace hypersub
