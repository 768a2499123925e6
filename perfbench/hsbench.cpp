// hsbench — the HyperSub end-to-end benchmark.
//
//   hsbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload (paper_feed, hot_market, scale_1m, node_churn; see
// README.md in this directory for why each exists) in this process, on the
// sequential engine, through the library's public entry points only. The
// workload is an open loop in virtual time: publish times are laid out in
// advance and the simulator runs them as fast as the host allows, so the
// wall-clock figures are throughputs at a stated size. --seconds sizes the
// event phase: each of a run's set-ups publishes seconds / kSetups x the
// workload's calibrated publishes per second.
//
// --trace 0 prints the end-to-end metrics; --trace 1 records benchmark-owned
// spans around every call into a layer and prints the per-layer metrics
// (span log written to DIR/spans_<workload>_<seed>.jsonl when --out is
// given). Every run checks the delivery multiset against a brute-force
// oracle and the zone invariants; any error exits non-zero. The last line
// of stdout is one JSON object: correct, attempted, failed, metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chord/chord_net.hpp"
#include "common/zipf.hpp"
#include "core/hypersub_system.hpp"
#include "core/load_balancer.hpp"
#include "core/sub_index.hpp"
#include "lph/lph.hpp"
#include "metrics/snapshot.hpp"
#include "net/topology.hpp"
#include "oracle.hpp"
#include "spans.hpp"
#include "workload/zipf_workload.hpp"

namespace {

using namespace hypersub;
using hsbench::Clock;
using hsbench::ScopedSpan;
using hsbench::SpanLog;
using hsbench::seconds_between;

// ---------------------------------------------------------------------------
// Workloads

/// When check_zone_invariants runs (after setup and at the end). The audit
/// costs about 11 us per zone at 2.1M zones (paper_feed: ~25 s per call)
/// and about 60 us per zone with 1M subscriptions (123 s per call), so it
/// runs in every run only where it is cheap.
enum class Audit { kEveryRun, kTracedRun, kNever };

struct Workload {
  const char* name;
  std::size_t nodes;
  std::size_t subs_per_node;
  double publishes_per_second;  ///< event-phase size per --seconds
  double mean_interarrival_ms;  ///< Poisson publish (or burst) spacing
  Audit audit;
  bool interest_catalog = false;  ///< hot_market's concentrated inputs
  bool bulk_install = false;    ///< oracle bulk_subscribe, not routed installs
  bool load_balancing = false;  ///< LB warm rounds in setup + periodic LB
  bool fast_lane = false;  ///< route cache + batch forwarding + cover
  bool lifecycle = false;  ///< live maintenance, replicas, reliable delivery
  bool stream_metrics = false;  ///< streaming event metrics
  bool small_scheme = false;    ///< 2-attribute scheme, 10-bit zone codes
  bool fixed_event_sample = false;  ///< same events for every seed
  double sub_ops_per_second = 0.0;  ///< churn size per --seconds
  std::size_t rounds = 1;           ///< publish rounds
  std::size_t churn_batches = 0;    ///< spread evenly over the rounds
};

// publishes_per_second and sub_ops_per_second size the measured phases. On a
// 4-core x86 host with an optimized build, --seconds 8 gives each workload
// 15-20 s of measured phases and a run of under 50 s: timings on a shared
// host swing by a quarter over a few seconds, so the phases are as long as
// the run time allows.
const Workload kWorkloads[] = {
    {.name = "paper_feed", .nodes = 2000, .subs_per_node = 10,
     .publishes_per_second = 1500.0, .mean_interarrival_ms = 100.0,
     .audit = Audit::kTracedRun, .load_balancing = true},
    {.name = "hot_market", .nodes = 1000, .subs_per_node = 20,
     .publishes_per_second = 1725.0, .mean_interarrival_ms = 40.0,
     .audit = Audit::kEveryRun, .interest_catalog = true, .fast_lane = true,
     .sub_ops_per_second = 20250.0, .rounds = 10, .churn_batches = 10},
    {.name = "scale_1m", .nodes = 10000, .subs_per_node = 100,
     .publishes_per_second = 45.0, .mean_interarrival_ms = 1.0,
     .audit = Audit::kNever, .bulk_install = true, .stream_metrics = true,
     .fixed_event_sample = true, .sub_ops_per_second = 4500.0,
     .rounds = 12, .churn_batches = 12},
    // Replicas keep every zone materialized (no chain compression), so the
    // lifecycle workload uses the small scheme to keep its zone tree small.
    // Its stacks run long phases (150 s virtual, about 30 crashes each) so
    // that the share of retried deliveries, which sets p99 latency, settles.
    {.name = "node_churn", .nodes = 500, .subs_per_node = 10,
     .publishes_per_second = 562.5, .mean_interarrival_ms = 100.0,
     .audit = Audit::kEveryRun, .lifecycle = true, .small_scheme = true},
};

/// Set-ups per run: setup_s and the rates are medians over them.
constexpr int kSetups = 3;

constexpr std::size_t kHotInterests = 96;   ///< hot_market interest templates
constexpr double kHotWidth = 0.1;  ///< interest width per attribute domain
constexpr double kHotShift = 0.15;  ///< max shift of a variant, in widths
constexpr int kHotLevel = 8;  ///< interests sit inside zones of this level
constexpr std::size_t kHotEventPool = 256;  ///< hot_market event pool
constexpr double kHotSkew = 0.8;  ///< Zipf skew of the pool's popularity
constexpr std::size_t kHotPublishers = 50;
constexpr std::size_t kHotBurst = 8;        ///< events per publisher burst
// node_churn: one lifecycle operation every 2.5 s; an outage lasts 3 s,
// longer than Chord's 1.5 s failure-detection timeout, so the ring notices
// it. Enough reliable-channel retries land in every run that p99 latency sits
// inside the retry mode instead of flipping between modes from seed to seed.
// (Shorter outages -- 2 s every 1.5 s -- fail check_zone_invariants at this
// commit on every seed tried, so the benchmark could not run them.)
constexpr double kLifecyclePeriodMs = 2500.0;
constexpr double kDownMs = 3000.0;
constexpr double kChurnTailMs = 30000.0;  ///< lets the last handshake commit
constexpr double kGraceMs = 10000.0;  ///< node_churn: subscriber must stay up
// The queue length is sampled between run_until slices: kSlices per publish
// phase, then on through the drain.
constexpr double kSlices = 50.0;
constexpr double kMinSliceMs = 10.0;
constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// The paper's zone geometry: base 2, level 20.
constexpr lph::ZoneSystem::Config kZoneConfig{1, 20};

// The deployment (King-like latencies, Chord ids) is fixed; --seed varies
// the workload: subscriptions, events, publishers, churn and lifecycle.
constexpr std::uint64_t kDeploymentSeed = 20070910;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  return core::splitmix64(seed * 0x9E3779B97F4A7C15ull + stream);
}

// ---------------------------------------------------------------------------
// Inputs: everything the program receives, generated from --seed alone.

struct SubInput {
  net::HostIndex host;
  pubsub::Subscription sub;
};

struct PubInput {
  double at_ms;            ///< offset from the phase start
  net::HostIndex publisher;
  std::size_t event;       ///< index into Inputs::events
};

struct Inputs {
  pubsub::Scheme scheme = workload::make_scheme(workload::table1_spec());
  std::vector<SubInput> subs;     ///< installed during setup
  std::vector<SubInput> fresh;    ///< subscribed by churn batches
  std::vector<pubsub::Event> events;
  std::vector<PubInput> pubs;     ///< ordered by at_ms within each round
  std::size_t churn_ops = 0;      ///< unsubscribe + subscribe operations
};

/// hot_market's interest templates: fixed-width boxes (kHotWidth of every
/// attribute's domain), each placed inside the extent of a random zone at
/// kHotLevel with room for the shifted variants. Topics stay local: every
/// subscription on an interest lives at kHotLevel or below, so the piece
/// cascades a churn batch triggers are bounded alike for every interest.
std::vector<HyperRect> hot_interests(const pubsub::Scheme& scheme,
                                     const lph::ZoneSystem::Config& zone_cfg,
                                     Rng& rng) {
  const lph::ZoneSystem zones(scheme.domain(), zone_cfg);
  std::vector<HyperRect> interests;
  for (std::size_t i = 0; i < kHotInterests; ++i) {
    Point p;
    for (const Interval& dom : scheme.domain().dims()) {
      p.push_back(rng.uniform(dom.lo, dom.hi));
    }
    lph::Zone z = zones.locate(p);
    while (z.level > kHotLevel) z = zones.parent(z);
    const HyperRect extent = zones.extent(z);
    std::vector<Interval> dims;
    for (std::size_t d = 0; d < scheme.arity(); ++d) {
      const Interval ext = extent.dim(d);
      const double w = kHotWidth * scheme.attribute(d).domain.length();
      const double margin = kHotShift * w;
      const double lo = rng.uniform(ext.lo + margin, ext.hi - margin - w);
      dims.push_back(Interval{lo, lo + w});
    }
    interests.push_back(HyperRect(std::move(dims)));
  }
  return interests;
}

/// A subscription on a uniformly chosen interest: an exact copy, a shrunk
/// copy inside it (both covered, so cover aggregation quenches them), or a
/// shifted copy overlapping it (registered).
pubsub::Subscription hot_subscription(const pubsub::Scheme& scheme,
                                      const std::vector<HyperRect>& interests,
                                      Rng& rng) {
  const HyperRect& base = interests[rng.index(interests.size())];
  const std::size_t variant = rng.index(3);
  std::vector<pubsub::Predicate> preds;
  for (std::size_t d = 0; d < base.dimensions(); ++d) {
    const Interval iv = base.dim(d);
    const double w = iv.length();
    if (variant == 0) {
      preds.push_back({d, iv});
    } else if (variant == 1) {
      const double nw = w * rng.uniform(0.6, 1.0);
      const double lo = iv.lo + rng.uniform(0.0, w - nw);
      preds.push_back({d, Interval{lo, lo + nw}});
    } else {
      const double shift = w * rng.uniform(-kHotShift, kHotShift);
      preds.push_back({d, Interval{iv.lo + shift, iv.hi + shift}});
    }
  }
  return pubsub::Subscription::from_predicates(scheme, preds);
}

Inputs make_inputs(const Workload& w, std::uint64_t seed, double seconds) {
  Inputs in;
  workload::WorkloadGenerator gen(
      w.small_scheme ? workload::tiny_spec() : workload::table1_spec(),
      mix(seed, 3));
  in.scheme = gen.scheme();
  Rng rng(mix(seed, 4));
  const std::size_t publishes =
      std::max<std::size_t>(1, std::size_t(std::llround(
                                   w.publishes_per_second * seconds)));
  in.churn_ops = 2 * std::size_t(std::llround(w.sub_ops_per_second *
                                              seconds / 2.0));

  if (w.interest_catalog) {
    // The market's catalog -- interest boxes and the event pool -- is fixed
    // like the deployment; --seed draws who subscribes to what, the
    // variants, the publish sequence and the churn.
    Rng catalog(kDeploymentSeed + 2);
    const std::vector<HyperRect> interests =
        hot_interests(in.scheme, kZoneConfig, catalog);
    for (net::HostIndex h = 0; h < w.nodes; ++h) {
      for (std::size_t k = 0; k < w.subs_per_node; ++k) {
        in.subs.push_back({h, hot_subscription(in.scheme, interests, rng)});
      }
    }
    for (std::size_t i = 0; i < in.churn_ops / 2; ++i) {
      in.fresh.push_back({net::HostIndex(rng.index(w.nodes)),
                          hot_subscription(in.scheme, interests, rng)});
    }
    // The event pool: points uniform inside a random interest.
    for (std::size_t i = 0; i < kHotEventPool; ++i) {
      const HyperRect& box = interests[catalog.index(interests.size())];
      pubsub::Event e;
      for (const Interval& iv : box.dims()) {
        e.point.push_back(catalog.uniform(iv.lo, iv.hi));
      }
      in.events.push_back(std::move(e));
    }
    std::vector<net::HostIndex> publishers;
    while (publishers.size() < kHotPublishers) {
      const auto h = net::HostIndex(rng.index(w.nodes));
      if (std::find(publishers.begin(), publishers.end(), h) ==
          publishers.end()) {
        publishers.push_back(h);
      }
    }
    // Bursts: one publisher emits kHotBurst Zipf-hot events at one instant,
    // so their messages share simulator timesteps (frame batching).
    const ZipfSampler hot(kHotEventPool, kHotSkew);
    const std::size_t per_round = std::max<std::size_t>(
        kHotBurst, publishes / w.rounds / kHotBurst * kHotBurst);
    for (std::size_t r = 0; r < w.rounds; ++r) {
      double t = 0.0;
      for (std::size_t i = 0; i < per_round; i += kHotBurst) {
        t += rng.exponential(w.mean_interarrival_ms);
        const net::HostIndex pub = publishers[rng.index(publishers.size())];
        for (std::size_t b = 0; b < kHotBurst; ++b) {
          in.pubs.push_back({t, pub, hot.sample(rng) - 1});
        }
      }
    }
    return in;
  }

  for (net::HostIndex h = 0; h < w.nodes; ++h) {
    for (std::size_t k = 0; k < w.subs_per_node; ++k) {
      in.subs.push_back({h, gen.make_subscription()});
    }
  }
  for (std::size_t i = 0; i < in.churn_ops / 2; ++i) {
    in.fresh.push_back(
        {net::HostIndex(rng.index(w.nodes)), gen.make_subscription()});
  }
  // A fixed event sample draws its events from the deployment's stream, so
  // every seed publishes the same events (from its own publishers).
  workload::WorkloadGenerator fixed(workload::table1_spec(),
                                    kDeploymentSeed + 3);
  workload::WorkloadGenerator& events = w.fixed_event_sample ? fixed : gen;
  // Publish times restart at every round (see run_phases).
  const std::size_t per_round =
      std::max<std::size_t>(1, publishes / std::max<std::size_t>(1, w.rounds));
  double t = 0.0;
  for (std::size_t i = 0; i < publishes; ++i) {
    if (i % per_round == 0 && i / per_round < w.rounds) t = 0.0;
    t += rng.exponential(w.mean_interarrival_ms);
    in.events.push_back(events.make_event());
    in.pubs.push_back({t, net::HostIndex(rng.index(w.nodes)), i});
  }
  return in;
}

// ---------------------------------------------------------------------------
// One stack: topology -> simulator -> network -> Chord -> HyperSub.

// Members are destroyed bottom-up, so every layer outlives its users.
struct Stack {
  hsbench::DeliveryRecorder sink;
  std::unique_ptr<net::KingLikeTopology> topo;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<chord::ChordNet> chord;
  std::unique_ptr<core::HyperSubSystem> sys;
  std::unique_ptr<core::LoadBalancer> lb;
  std::uint32_t scheme = 0;
  std::vector<core::SubscriptionHandle> handles;  ///< parallel to Inputs::subs
};

struct SetupTimes {
  double total_s = 0.0;
  double build_s = 0.0;    ///< Overlay::build
  double install_s = 0.0;  ///< subscription install incl. drain
  std::vector<double> lb_round_s;
};

SetupTimes build_stack(const Workload& w, const Inputs& in, SpanLog& log,
                       Stack& st) {
  // Inputs the install consumes by value are copied before the clock starts.
  std::vector<core::HyperSubSystem::BulkSub> batch;
  if (w.bulk_install) {
    batch.reserve(in.subs.size());
    for (const SubInput& s : in.subs) batch.push_back({s.host, s.sub});
  }

  SetupTimes t;
  ScopedSpan setup_span(log, "bench.setup");
  const auto t0 = Clock::now();
  {
    ScopedSpan s(log, "net.topology");
    net::KingLikeTopology::Params tp;
    tp.hosts = w.nodes;
    tp.seed = kDeploymentSeed;
    st.topo = std::make_unique<net::KingLikeTopology>(tp);
    st.sim = std::make_unique<sim::Simulator>();
    st.net = std::make_unique<net::Network>(*st.sim, *st.topo);
  }
  {
    ScopedSpan s(log, "chord.build");
    const auto b0 = Clock::now();
    chord::ChordNet::Params cp;
    cp.pns = true;
    cp.seed = kDeploymentSeed + 1;
    cp.reliable_routing = w.lifecycle;
    st.chord = std::make_unique<chord::ChordNet>(*st.net, cp);
    st.chord->build(1);
    t.build_s = seconds_between(b0, Clock::now());
  }
  {
    ScopedSpan s(log, "core.system");
    core::HyperSubSystem::Config sc;
    sc.bootstrap = core::BootstrapMode::kNone;  // built above
    sc.route_cache = w.fast_lane;
    sc.batch_forwarding = w.fast_lane;
    sc.cover_aggregation = w.fast_lane;
    sc.replicas = w.lifecycle ? 2 : 0;
    sc.reliable_delivery = w.lifecycle;
    sc.stream_event_metrics = w.stream_metrics;
    st.sys = std::make_unique<core::HyperSubSystem>(*st.chord, sc);
    st.sys->set_delivery_sink(st.sink);
    core::SchemeOptions so;
    so.zone_cfg = w.small_scheme ? lph::ZoneSystem::Config::for_dims(2)
                                 : kZoneConfig;
    so.rotate = true;
    st.scheme = st.sys->add_scheme(in.scheme, so);
  }
  {
    ScopedSpan s(log, "core.install");
    const auto i0 = Clock::now();
    if (w.bulk_install) {
      st.handles = st.sys->bulk_subscribe(st.scheme, std::move(batch), 1);
    } else {
      st.handles.reserve(in.subs.size());
      for (const SubInput& s2 : in.subs) {
        st.handles.push_back(st.sys->subscribe(s2.host, st.scheme, s2.sub));
      }
    }
    {
      ScopedSpan d(log, "sim.drain");
      st.sim->run();
    }
    t.install_s = seconds_between(i0, Clock::now());
  }
  if (w.load_balancing) {
    // The runner's defaults: 30 s period, delta 0.1, probe level 1, up to 4
    // acceptors, min load 8, 1.5 s reply timeout; 2 warm rounds.
    st.lb = std::make_unique<core::LoadBalancer>(
        *st.sys, core::LoadBalancer::Config{30000.0, 0.1, 1, 4, 8, 1500.0});
    for (int r = 0; r < 2; ++r) {
      ScopedSpan s(log, "core.lb_round");
      const auto l0 = Clock::now();
      st.lb->run_round();
      t.lb_round_s.push_back(seconds_between(l0, Clock::now()));
    }
  }
  if (w.lifecycle) st.chord->start_maintenance();
  t.total_s = seconds_between(t0, Clock::now());
  return t;
}

// ---------------------------------------------------------------------------
// Oracle bookkeeping

struct LiveSub {
  net::HostIndex host;
  std::uint32_t iid;
  const pubsub::Subscription* sub;
  bool live;
};

struct PubRecord {
  std::uint64_t seq = UINT64_MAX;  ///< UINT64_MAX: never published
  double time_ms = 0.0;
  net::HostIndex publisher = 0;
};

/// Per-host outage intervals [down, up) in virtual time (node_churn).
using Outages = std::vector<std::vector<std::pair<double, double>>>;

struct Oracle {
  std::vector<std::uint64_t> expected;
  std::vector<std::uint64_t> allowed;
  bool key_overflow = false;

  /// Brute-force Subscription::matches over the live subscriptions.
  void add_event(const std::vector<LiveSub>& live, const PubRecord& rec,
                 const Point& point, const Outages* outages) {
    if (rec.seq == UINT64_MAX) return;
    if (rec.seq >= hsbench::kSeqLimit) {
      key_overflow = true;
      return;
    }
    for (const LiveSub& s : live) {
      if (!s.live || !s.sub->matches(point)) continue;
      if (s.host >= hsbench::kHostLimit || s.iid >= hsbench::kIidLimit) {
        key_overflow = true;
        continue;
      }
      const std::uint64_t k = hsbench::delivery_key(rec.seq, s.host, s.iid);
      allowed.push_back(k);
      bool up = true;
      if (outages != nullptr) {
        for (const auto& [down, back] : (*outages)[s.host]) {
          if (down < rec.time_ms + kGraceMs && back > rec.time_ms) up = false;
        }
      }
      if (up) expected.push_back(k);
    }
  }

  void finish() {
    std::sort(expected.begin(), expected.end());
    std::sort(allowed.begin(), allowed.end());
  }
};

// ---------------------------------------------------------------------------
// Event and churn phases

struct PhaseResult {
  std::size_t publishes = 0;
  double publish_wall_s = 0.0;  ///< publish phases incl. drain + finalize
  std::size_t sub_ops = 0;
  std::vector<double> batch_rates;  ///< ops per wall second of each churn
                                    ///< batch, incl. its drain
  std::uint64_t sim_events = 0;  ///< executed during publish phases
  std::size_t pending_peak = 0;
  std::uint64_t msgs = 0;   ///< network messages during publish phases
  std::uint64_t bytes = 0;  ///< network bytes during publish phases
  std::uint64_t dropped = 0;
  double finalize_s = 0.0;
  std::vector<PubRecord> records;  ///< parallel to Inputs::pubs
  Oracle oracle;
};

/// node_churn's lifecycle schedule: every kLifecyclePeriodMs one live node
/// goes down, alternately by leave_node and by crash_node, and comes back
/// kDownMs later (join_node after a leave, restore_node from its pre-crash
/// image after a crash). As in the lifecycle tests, one handover runs at a
/// time: an operation is skipped while a transfer is active, and a node's
/// return waits (up to 20 s) for the active transfer to finish.
struct Lifecycle {
  std::uint64_t crashes = 0;
  std::uint64_t leaves = 0;
  std::uint64_t restores = 0;
  std::uint64_t joins = 0;
  Outages outages;  ///< per host; an open outage ends at +infinity

  void schedule(Stack& st, std::uint64_t seed, double until) {
    outages.assign(st.net->size(), {});
    rng = std::make_unique<Rng>(mix(seed, 6));
    std::size_t k = 0;
    for (double t = st.sim->now() + kLifecyclePeriodMs / 2; t < until;
         t += kLifecyclePeriodMs, ++k) {
      st.sim->schedule_at(t, [this, &st, graceful = k % 2 == 0] {
        go_down(st, graceful);
      });
    }
  }

 private:
  using Image = std::shared_ptr<const std::vector<std::uint8_t>>;

  void go_down(Stack& st, bool graceful) {
    if (st.sys->transfer_active()) return;
    const std::size_t n = st.net->size();
    auto v = net::HostIndex(rng->index(n));
    for (std::size_t g = 0; g < n && !st.net->alive(v); ++g) {
      v = net::HostIndex((v + 1) % n);
    }
    if (!st.net->alive(v)) return;
    outages[v].push_back(
        {st.sim->now(), std::numeric_limits<double>::infinity()});
    Image image;
    if (graceful) {
      ++leaves;
      st.sys->leave_node(v);
    } else {
      ++crashes;
      image = std::make_shared<const std::vector<std::uint8_t>>(
          st.sys->snapshot_node(v));
      st.sys->crash_node(v);
    }
    st.sim->schedule(kDownMs, [this, &st, v, image] {
      come_back(st, v, image, 0);
    });
  }

  void come_back(Stack& st, net::HostIndex v, Image image, int tries) {
    if (st.sys->transfer_active() && tries < 40) {
      st.sim->schedule(500.0, [this, &st, v, image, tries] {
        come_back(st, v, image, tries + 1);
      });
      return;
    }
    if (st.net->alive(v)) return;
    outages[v].back().second = st.sim->now();
    const std::size_t n = st.net->size();
    auto boot = net::HostIndex((v + 1) % n);
    while (!st.net->alive(boot)) boot = net::HostIndex((boot + 1) % n);
    if (image == nullptr) {
      ++joins;
      st.sys->join_node(v, boot);
    } else {
      ++restores;
      st.sys->restore_node(v, *image, boot);
    }
  }

  std::unique_ptr<Rng> rng;
};

/// Schedule pubs [begin, end) at phase-relative times from now; each fires
/// sys.publish and records its seq. Returns the last publish time.
double schedule_publishes(Stack& st, const Inputs& in, std::size_t begin,
                          std::size_t end, std::vector<PubRecord>& records,
                          SpanLog& log) {
  const double t0 = st.sim->now();
  double last = t0;
  for (std::size_t i = begin; i < end; ++i) {
    const PubInput& p = in.pubs[i];
    last = t0 + p.at_ms;
    st.sim->schedule_at(last, [&st, &in, &records, &log, i] {
      PubRecord& rec = records[i];
      net::HostIndex pub = in.pubs[i].publisher;
      // Under node churn the drawn publisher may be down: the next live
      // host publishes instead.
      for (std::size_t k = 0; k < st.net->size() && !st.net->alive(pub); ++k) {
        pub = net::HostIndex((pub + 1) % st.net->size());
      }
      if (!st.net->alive(pub)) return;
      rec.time_ms = st.sim->now();
      rec.publisher = pub;
      ScopedSpan s(log, "core.publish");
      rec.seq = st.sys->publish(pub, st.scheme, in.events[in.pubs[i].event]);
    });
  }
  return last;
}

/// Advance the simulator to `until` in `slice` steps, sampling the queue
/// length after each; with `until` infinite, until the queue is empty.
void run_slices(Stack& st, double until, double slice, SpanLog& log,
                PhaseResult& r) {
  for (double t = st.sim->now(); t < until && st.sim->pending() > 0;) {
    t = std::min(t + slice, until);
    {
      ScopedSpan s(log, "sim.run_until");
      st.sim->run_until(t);
    }
    r.pending_peak = std::max(r.pending_peak, st.sim->pending());
  }
}

/// Unsubscribe half of `ops` random live subscriptions and subscribe the
/// next fresh ones, then drain. Returns the wall seconds taken.
double churn_batch(Stack& st, const Inputs& in, std::size_t ops,
                   std::size_t& next_fresh, std::vector<LiveSub>& live,
                   std::vector<std::size_t>& live_idx, Rng& rng,
                   SpanLog& log) {
  std::vector<std::size_t> victims;
  for (std::size_t i = 0; i < ops / 2 && !live_idx.empty(); ++i) {
    const std::size_t j = rng.index(live_idx.size());
    victims.push_back(live_idx[j]);
    live_idx[j] = live_idx.back();
    live_idx.pop_back();
  }
  std::vector<core::SubscriptionHandle> victim_handles;
  for (const std::size_t v : victims) {
    victim_handles.push_back(core::SubscriptionHandle{
        st.scheme, live[v].iid, live[v].host});
  }
  const std::size_t first_fresh = next_fresh;
  const std::size_t fresh_n = std::min(ops / 2, in.fresh.size() - next_fresh);
  std::vector<core::SubscriptionHandle> fresh_handles;
  fresh_handles.reserve(fresh_n);

  ScopedSpan span(log, "core.churn");
  const auto t0 = Clock::now();
  for (const auto& h : victim_handles) st.sys->unsubscribe(h);
  for (std::size_t i = 0; i < fresh_n; ++i) {
    const SubInput& s = in.fresh[first_fresh + i];
    fresh_handles.push_back(st.sys->subscribe(s.host, st.scheme, s.sub));
  }
  {
    ScopedSpan d(log, "sim.drain");
    st.sim->run();
  }
  const double wall = seconds_between(t0, Clock::now());

  for (const std::size_t v : victims) live[v].live = false;
  for (std::size_t i = 0; i < fresh_n; ++i) {
    live_idx.push_back(live.size());
    live.push_back({in.fresh[first_fresh + i].host, fresh_handles[i].iid,
                    &in.fresh[first_fresh + i].sub, true});
  }
  next_fresh += fresh_n;
  return wall;
}

/// Run the workload's measured phases on a freshly set-up stack.
/// With `with_oracle` the brute-force oracle enumerates the deliveries the
/// phases must make (runs are deterministic, so one enumeration serves every
/// set-up of a run).
PhaseResult run_phases(const Workload& w, std::uint64_t seed,
                       const Inputs& in, Stack& st, SpanLog& log,
                       Lifecycle& lc, bool with_oracle) {
  PhaseResult r;
  r.records.assign(in.pubs.size(), PubRecord{});
  std::vector<LiveSub> live;
  live.reserve(in.subs.size() + in.fresh.size());
  std::vector<std::size_t> live_idx;
  for (std::size_t i = 0; i < in.subs.size(); ++i) {
    live.push_back({in.subs[i].host, st.handles[i].iid, &in.subs[i].sub,
                    true});
    live_idx.push_back(i);
  }
  Rng churn_rng(mix(seed, 5));
  std::size_t next_fresh = 0;

  st.net->reset_traffic();
  st.sys->reset_metrics();

  const std::size_t rounds = std::max<std::size_t>(1, w.rounds);
  const std::size_t per_round = in.pubs.size() / rounds;
  const std::size_t batches_per_round = w.churn_batches / rounds;
  const std::size_t ops_per_batch =
      w.churn_batches > 0 ? in.churn_ops / w.churn_batches : 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t b = 0; b < batches_per_round && ops_per_batch > 0; ++b) {
      r.batch_rates.push_back(
          double(ops_per_batch) / churn_batch(st, in, ops_per_batch,
                                              next_fresh, live, live_idx,
                                              churn_rng, log));
      r.sub_ops += ops_per_batch;
    }
    const std::size_t begin = round * per_round;
    const std::size_t end =
        round + 1 == rounds ? in.pubs.size() : begin + per_round;
    const std::uint64_t exec0 = st.sim->executed();
    const std::uint64_t msgs0 = st.net->total_messages();
    const std::uint64_t bytes0 = st.net->total_bytes();
    const std::uint64_t drop0 = st.net->dropped();

    {
      ScopedSpan phase(log, "bench.event_phase");
      const auto t0 = Clock::now();
      const double first = st.sim->now();
      const double last =
          schedule_publishes(st, in, begin, end, r.records, log);
      const double slice = std::max(kMinSliceMs, (last - first) / kSlices);
      if (w.lifecycle) lc.schedule(st, seed, last);
      if (st.lb) st.lb->start();
      run_slices(st, last, slice, log, r);
      if (st.lb) st.lb->stop();
      if (w.lifecycle) {
        run_slices(st, last + kChurnTailMs, slice, log, r);
        st.chord->stop_maintenance();
      }
      run_slices(st, kInfinity, slice, log, r);
      if (round + 1 == rounds) {
        ScopedSpan f(log, "metrics.finalize");
        const auto f0 = Clock::now();
        st.sys->finalize_events();
        r.finalize_s = seconds_between(f0, Clock::now());
      }
      r.publish_wall_s += seconds_between(t0, Clock::now());
    }
    r.publishes += end - begin;
    r.sim_events += st.sim->executed() - exec0;
    r.msgs += st.net->total_messages() - msgs0;
    r.bytes += st.net->total_bytes() - bytes0;
    r.dropped += st.net->dropped() - drop0;

    // Oracle for this round, against the live set it published into.
    for (std::size_t i = begin; with_oracle && i < end; ++i) {
      r.oracle.add_event(live, r.records[i], in.events[in.pubs[i].event].point,
                         w.lifecycle ? &lc.outages : nullptr);
    }
  }
  if (with_oracle) r.oracle.finish();
  return r;
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only, outside the event phase)

struct Probes {
  double route_ns = 0.0;
  double route_hops = 0.0;
  double locate_sub_ns = 0.0;
  double locate_event_ns = 0.0;
  double match_ns = 0.0;
  std::uint64_t checksum = 0;  ///< printed, so the probed calls stay live
};

Probes run_probes(const Inputs& in, const PhaseResult& r, Stack& st,
                  SpanLog& log) {
  Probes p;
  const core::Subscheme& ss = st.sys->scheme_runtime(st.scheme).subscheme(0);
  const lph::ZoneSystem& zs = ss.zones();
  const std::size_t n_events = std::min<std::size_t>(in.pubs.size(), 4000);

  // chord: greedy next_hop walk from the publisher to the owner of each
  // event's rendezvous key.
  {
    std::vector<std::pair<net::HostIndex, Id>> walks;
    for (std::size_t i = 0; i < n_events; ++i) {
      net::HostIndex from = r.records[i].publisher;
      if (!st.net->alive(from)) continue;
      const Point pt = ss.project(in.events[in.pubs[i].event].point);
      walks.push_back({from, lph::hash_event(zs, pt, ss.rotation()).key});
    }
    std::uint64_t hops = 0;
    const auto t0 = Clock::now();
    {
      ScopedSpan s(log, "chord.route_probe");
      for (const auto& [from, key] : walks) {
        net::HostIndex h = from;
        for (int guard = 0; guard < 256 && !st.chord->owns(h, key); ++guard) {
          const overlay::Peer next = st.chord->next_hop(h, key);
          if (!next.valid()) break;
          h = next.host;
          ++hops;
        }
        p.checksum += h;
      }
    }
    const double secs = seconds_between(t0, Clock::now());
    if (!walks.empty()) {
      p.route_ns = secs * 1e9 / double(walks.size());
      p.route_hops = double(hops) / double(walks.size());
    }
  }
  // lph: ZoneSystem::locate + key on the workload's subscriptions/events.
  {
    const std::size_t n = std::min<std::size_t>(in.subs.size(), 20000);
    std::vector<HyperRect> rects;
    for (std::size_t i = 0; i < n; ++i) {
      rects.push_back(ss.project(in.subs[i].sub.range()));
    }
    const auto t0 = Clock::now();
    {
      ScopedSpan s(log, "lph.locate_sub_probe");
      for (const HyperRect& rect : rects) {
        p.checksum += zs.key(zs.locate(rect));
      }
    }
    if (n > 0) {
      p.locate_sub_ns = seconds_between(t0, Clock::now()) * 1e9 / double(n);
    }
  }
  {
    std::vector<Point> points;
    for (std::size_t i = 0; i < n_events; ++i) {
      points.push_back(ss.project(in.events[in.pubs[i].event].point));
    }
    const auto t0 = Clock::now();
    {
      ScopedSpan s(log, "lph.locate_event_probe");
      for (const Point& pt : points) p.checksum += zs.key(zs.locate(pt));
    }
    if (!points.empty()) {
      p.locate_event_ns =
          seconds_between(t0, Clock::now()) * 1e9 / double(points.size());
    }
  }
  // core: SubIndex::candidates over the workload's 8 largest zones.
  {
    std::vector<std::pair<std::size_t, const core::ZoneState*>> zones;
    for (net::HostIndex h = 0; h < st.net->size(); ++h) {
      if (!st.net->alive(h)) continue;
      for (const auto& [addr, z] : st.sys->node(h).zones()) {
        if (z.subscription_count() > 0) {
          zones.push_back({z.subscription_count(), &z});
        }
      }
    }
    const std::size_t top = std::min<std::size_t>(zones.size(), 8);
    std::partial_sort(zones.begin(), zones.begin() + std::ptrdiff_t(top),
                      zones.end(), [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    std::vector<Point> points;
    for (std::size_t i = 0; i < std::min<std::size_t>(n_events, 1000); ++i) {
      points.push_back(ss.project(in.events[in.pubs[i].event].point));
    }
    std::vector<std::uint32_t> out;
    std::size_t calls = 0;
    double secs = 0.0;
    for (std::size_t z = 0; z < top; ++z) {
      core::SubIndex index;
      for (const core::StoredSub& s : zones[z].second->subscriptions()) {
        index.insert(s.projected);
      }
      const auto t0 = Clock::now();
      {
        ScopedSpan s(log, "core.match_probe");
        for (const Point& pt : points) {
          out.clear();
          index.candidates(pt, out);
          p.checksum += out.size();
        }
      }
      secs += seconds_between(t0, Clock::now());
      calls += points.size();
    }
    if (calls > 0) p.match_ns = secs * 1e9 / double(calls);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Reporting helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--out") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: hsbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr, "hsbench: refusing to report timings from an "
                       "unoptimized or assert-enabled build (%s)\n",
               HSBENCH_BUILD_TYPE);
  return 2;
#endif
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) {
    std::fprintf(stderr, "hsbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;

  // --seconds sizes the phases of the whole run, split evenly over its
  // set-ups.
  const Inputs in = make_inputs(w, args.seed, args.seconds / kSetups);
  const bool audit = w.audit == Audit::kEveryRun ||
                     (w.audit == Audit::kTracedRun && args.trace);
  SpanLog log;

  // A run sets up kSetups identical stacks and runs the measured phases on
  // each: timings are medians over the stacks, and every stack must deliver
  // the same multiset. In the traced run only the last stack records spans;
  // the others give the untraced publish rate for trace.overhead.
  std::vector<double> setup_s, build_s, install_s, lb_round_s;
  std::vector<double> publish_rate, sub_ops_rate;
  std::unique_ptr<Stack> stack;
  Lifecycle lc;
  PhaseResult pr;
  Oracle oracle;
  hsbench::Comparison cmp;
  std::size_t zone_tree_bytes = 0, zones = 0, zone_subs = 0, indexed_subs = 0;
  std::uint64_t attempted = 0, failed = 0, first_hash = 0;
  bool ok = true;
  int audit_failures = 0;
  const bool strict = !w.lifecycle;
  for (int s = 0; s < kSetups; ++s) {
    const bool last = s + 1 == kSetups;
    log.set_run(std::uint32_t(s));
    log.set_enabled(args.trace && last);
    stack.reset();
    stack = std::make_unique<Stack>();
    const SetupTimes t = build_stack(w, in, log, *stack);
    setup_s.push_back(t.total_s);
    build_s.push_back(t.build_s);
    install_s.push_back(t.install_s);
    lb_round_s.insert(lb_round_s.end(), t.lb_round_s.begin(),
                      t.lb_round_s.end());
    Stack& st = *stack;

    if (last) {
      if (audit) {
        ScopedSpan span(log, "core.audit");
        if (!st.sys->check_zone_invariants()) {
          ++audit_failures;
          std::fprintf(stderr, "zone invariants fail after set-up\n");
        }
      }
      // Zone-tree size and index coverage after setup.
      for (net::HostIndex h = 0; h < st.net->size(); ++h) {
        const auto b = st.sys->node(h).memory_breakdown();
        zone_tree_bytes += b.zone_tree_bytes();
        zones += b.materialized_zones + b.implicit_zones;
        for (const auto& [addr, z] : st.sys->node(h).zones()) {
          zone_subs += z.subscription_count();
          if (z.index_active()) indexed_subs += z.subscription_count();
        }
      }
    }

    lc = Lifecycle{};
    pr = run_phases(w, args.seed, in, st, log, lc, s == 0);
    if (s == 0) oracle = std::move(pr.oracle);
    const double rate = double(pr.publishes) / pr.publish_wall_s;
    publish_rate.push_back(rate);
    // The median over every churn batch of every stack where the workload
    // has them, else the routed install.
    const double stack_sub_ops_rate =
        pr.batch_rates.empty() ? double(in.subs.size()) / t.install_s
                               : median(pr.batch_rates);
    if (pr.batch_rates.empty()) {
      sub_ops_rate.push_back(stack_sub_ops_rate);
    } else {
      sub_ops_rate.insert(sub_ops_rate.end(), pr.batch_rates.begin(),
                          pr.batch_rates.end());
    }
    std::printf("[hsbench] set-up %d: setup_s=%.4f publish_rate=%.2f "
                "sub_ops_rate=%.1f\n",
                s, t.total_s, rate, stack_sub_ops_rate);
    cmp = hsbench::compare_deliveries(st.sink.keys(), oracle.expected,
                                      oracle.allowed);
    // Missed deliveries are errors except under node churn, where they
    // count into delivered_share; extra and duplicate ones always are.
    const std::uint64_t unpackable = st.sink.unpackable();
    const std::uint64_t errors = cmp.extra + cmp.duplicate + unpackable +
                                 (strict ? cmp.missed : 0);
    attempted += cmp.expected;
    failed += cmp.missed + cmp.extra + cmp.duplicate + unpackable;
    if (s == 0) first_hash = cmp.hash;
    if (cmp.hash != first_hash) {
      std::fprintf(stderr, "set-up %d delivered differently\n", s);
      ok = false;
    }
    if (errors > 0 || oracle.key_overflow || cmp.expected == 0) ok = false;
    if (!last) stack.reset();
  }
  Stack& st = *stack;
  const std::uint32_t run = std::uint32_t(kSetups - 1);

  double snapshot_s = 0.0;
  metrics::Snapshot snap;
  {
    ScopedSpan s(log, "metrics.snapshot");
    const auto t0 = Clock::now();
    snap = metrics::snapshot(*st.sys);
    snapshot_s = seconds_between(t0, Clock::now());
  }
  if (audit) {
    ScopedSpan s(log, "core.audit");
    if (!st.sys->check_zone_invariants()) {
      ++audit_failures;
      std::fprintf(stderr, "zone invariants fail at the end\n");
    }
  }
  if (audit_failures > 0) ok = false;
  const std::uint64_t digest = st.sys->zone_content_digest();

  const auto rel = st.sys->reliability_counters();
  const auto chord_rel = st.chord->route_reliability();
  const auto cache = st.sys->route_cache_counters();
  const auto batch = st.sys->batch_counters();
  const auto cover = st.sys->cover_counters();
  const auto& js = st.sys->join_stats();
  const double publishes = double(std::max<std::size_t>(1, pr.publishes));
  const double deliveries_per_publish = double(cmp.delivered) / publishes;
  const double indexed_share = ratio(double(indexed_subs), double(zone_subs));
  const double cache_hit_rate =
      ratio(double(cache.hits), double(cache.hits + cache.misses));
  const double quenched_share = ratio(
      double(cover.quenched), double(cover.quenched + cover.representatives));
  const std::int64_t in_flight = st.sys->transfer_active() ? 1 : 0;
  const std::int64_t join_unaccounted =
      std::int64_t(js.joins_started) - std::int64_t(js.joins_committed) -
      std::int64_t(js.joins_aborted) - in_flight;

  std::printf("[hsbench] workload=%s seed=%" PRIu64 " publishes=%zu "
              "sub_ops=%zu expected=%" PRIu64 " delivered=%" PRIu64
              " missed=%" PRIu64 " extra=%" PRIu64 " duplicate=%" PRIu64
              " invariants=%s\n",
              w.name, args.seed, pr.publishes, pr.sub_ops, cmp.expected,
              cmp.delivered, cmp.missed, cmp.extra, cmp.duplicate,
              !audit ? "not-run" : audit_failures == 0 ? "ok" : "FAIL");
  std::printf("{\"properties\": {\"workload\": \"%s\", "
              "\"indexed_sub_share\": %.6f, \"route_cache_hit_rate\": %.6f, "
              "\"cover_quenched_share\": %.6f, "
              "\"deliveries_per_publish\": %.3f, "
              "\"joins_started\": %" PRIu64 ", \"joins_committed\": %" PRIu64
              ", \"joins_aborted\": %" PRIu64 ", \"joins_in_flight\": %lld, "
              "\"join_unaccounted\": %lld, \"leaves\": %" PRIu64
              ", \"rejoins\": %" PRIu64 ", \"crashes\": %" PRIu64
              ", \"restores\": %" PRIu64 "}}\n",
              w.name, indexed_share, cache_hit_rate, quenched_share,
              deliveries_per_publish, js.joins_started, js.joins_committed,
              js.joins_aborted, (long long)in_flight,
              (long long)join_unaccounted, lc.leaves, lc.joins, lc.crashes,
              lc.restores);
  std::printf("{\"meta\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"seconds\": %g, \"trace\": %d, \"host_cores\": %u, "
              "\"host_ram_bytes\": %lld, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"zone_content_digest\": \"%016" PRIx64
              "\", \"delivery_hash\": \"%016" PRIx64 "\", \"events\": %zu}}\n",
              w.name, args.seed, args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(),
              (long long)sysconf(_SC_PHYS_PAGES) *
                  (long long)sysconf(_SC_PAGE_SIZE),
              HSBENCH_BUILD_TYPE, __VERSION__, digest, cmp.hash,
              snap.events);

  std::vector<Metric> m;
  if (!args.trace) {
    const auto& lat = st.sink.latency_ms();
    const auto& hops = st.sink.hops();
    m = {
        {"setup_s", median(setup_s), "s"},
        {"publish_rate", median(publish_rate), "1/s"},
        {"sub_ops_rate", median(sub_ops_rate), "1/s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
        {"latency_p50_ms", hsbench::percentile(lat, 0.50), "ms"},
        {"latency_p99_ms", hsbench::percentile(lat, 0.99), "ms"},
        {"hops_p50", hsbench::grouped_percentile(hops, 0.50), "count"},
        {"hops_p99", hsbench::grouped_percentile(hops, 0.99), "count"},
        {"bytes_per_publish", double(pr.bytes) / publishes, "B"},
        {"delivered_share", 1.0 - ratio(double(failed), double(attempted)),
         "ratio"},
    };
  } else {
    const Probes p = run_probes(in, pr, st, log);
    const auto publish_spans = log.total("core.publish", run);
    const auto self = log.self_seconds_by_layer(run);
    auto self_of = [&self](const char* layer) {
      const auto it = self.find(layer);
      return it == self.end() ? 0.0 : it->second;
    };
    const std::uint64_t handovers = js.joins_committed + js.leaves_completed;
    const double sub_op_ns =
        1e9 / median(sub_ops_rate);
    m = {
        {"sim.events_per_publish", double(pr.sim_events) / publishes, "count"},
        {"sim.ns_per_event",
         ratio((pr.publish_wall_s - pr.finalize_s) * 1e9,
               double(pr.sim_events)),
         "ns"},
        {"sim.pending_peak", double(pr.pending_peak), "count"},
        {"sim.self_s", self_of("sim"), "s"},
        {"net.msgs_per_publish", double(pr.msgs) / publishes, "count"},
        {"net.dropped", double(pr.dropped), "count"},
        {"net.reliable_retries_per_publish",
         double(rel.retries + chord_rel.retries) / publishes, "count"},
        {"net.reliable_reroutes", double(rel.reroutes + chord_rel.reroutes),
         "count"},
        {"net.dups_suppressed", double(rel.duplicates_suppressed), "count"},
        {"net.self_s", self_of("net"), "s"},
        {"chord.build_s", median(build_s), "s"},
        {"chord.route_ns", p.route_ns, "ns"},
        {"chord.route_hops", p.route_hops, "count"},
        {"chord.self_s", self_of("chord"), "s"},
        {"lph.locate_sub_ns", p.locate_sub_ns, "ns"},
        {"lph.locate_event_ns", p.locate_event_ns, "ns"},
        {"lph.self_s", self_of("lph"), "s"},
        {"core.install_s", median(install_s), "s"},
        {"core.zone_tree_mib", double(zone_tree_bytes) / (1024.0 * 1024.0),
         "MiB"},
        {"core.zones", double(zones), "count"},
        {"core.sub_op_ns", sub_op_ns, "ns"},
        {"core.publish_call_ns",
         ratio(publish_spans.seconds * 1e9, double(publish_spans.count)),
         "ns"},
        {"core.match_ns", p.match_ns, "ns"},
        {"core.route_cache_hit_rate", cache_hit_rate, "ratio"},
        {"core.batch_chunks_per_frame",
         ratio(double(batch.chunks), double(batch.frames)), "ratio"},
        {"core.cover_quenched_share", quenched_share, "ratio"},
        {"core.deliveries_per_publish", deliveries_per_publish, "count"},
        {"core.indexed_sub_share", indexed_share, "ratio"},
        {"core.lb_round_s", median(lb_round_s), "s"},
        {"core.lb_migrated", double(st.lb ? st.lb->migrated_count() : 0),
         "count"},
        {"core.join_committed_share",
         ratio(double(js.joins_committed), double(js.joins_started)),
         "ratio"},
        {"core.join_unaccounted", double(join_unaccounted), "count"},
        {"core.transfer_bytes_per_join",
         ratio(double(js.transfer_bytes), double(js.joins_started)), "B"},
        {"core.handoff_mean_ms",
         ratio(js.total_handoff_ms, double(handovers)), "ms"},
        {"core.self_s", self_of("core"), "s"},
        {"metrics.finalize_s", pr.finalize_s, "s"},
        {"metrics.snapshot_s", snapshot_s, "s"},
        {"metrics.self_s", self_of("metrics"), "s"},
        // The untraced stack just before the traced one: both run after a
        // previous stack freed its memory.
        {"trace.overhead",
         ratio(publish_rate[kSetups - 2], publish_rate[kSetups - 1]) - 1.0,
         "ratio"},
    };
    std::printf("[hsbench] probe checksum %016" PRIx64 "\n", p.checksum);
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/spans_" + w.name + "_" +
                               std::to_string(args.seed) + ".jsonl";
      if (!log.write_jsonl(path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        ok = false;
      }
    }
  }
  print_result(ok, std::max<std::uint64_t>(1, attempted), failed, m);
  return ok ? 0 : 1;
}
