// Micro-benchmark: zone-repository event matching and summary-filter
// maintenance — the per-node hot path of event processing.
//
// Besides the google-benchmark timings, running this binary performs a
// subs-per-zone sweep comparing the SubIndex-backed match against the
// linear scan, the index's build cost (one-shot SubIndex::assign against
// one insert per subscription), and the cost of one remove_subscription at
// 1k, 10k and 50k subscriptions per zone, and writes machine-readable
// results to BENCH_match.json (override with --json=PATH) so successive
// changes can track the matching trajectory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/sub_index.hpp"
#include "core/zone_state.hpp"
#include "workload/zipf_workload.hpp"

namespace {

using namespace hypersub;

constexpr std::size_t kNever = ~std::size_t{0};

core::ZoneState make_zone(std::size_t subs, std::uint64_t seed,
                          std::size_t index_threshold) {
  core::ZoneState z(core::ZoneAddr{}, index_threshold);
  workload::WorkloadGenerator gen(workload::table1_spec(), seed);
  for (std::size_t i = 0; i < subs; ++i) {
    const auto sub = gen.make_subscription();
    z.add_subscription(core::StoredSub{
        core::SubId{i, std::uint32_t(i), core::SubIdKind::kSubscriber}, sub,
        sub.range()});
  }
  return z;
}

void zone_match_bench(benchmark::State& state, std::size_t threshold) {
  const auto z = make_zone(std::size_t(state.range(0)), 1, threshold);
  workload::WorkloadGenerator gen(workload::table1_spec(), 2);
  std::vector<Point> pts;
  for (int i = 0; i < 256; ++i) pts.push_back(gen.make_event().point);
  std::vector<core::SubId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    z.match(pts[i & 255], pts[i & 255], out);
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ZoneMatch(benchmark::State& state) {
  zone_match_bench(state, core::ZoneState::kDefaultIndexThreshold);
}
BENCHMARK(BM_ZoneMatch)->Arg(16)->Arg(128)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_ZoneMatchLinear(benchmark::State& state) {
  zone_match_bench(state, kNever);
}
BENCHMARK(BM_ZoneMatchLinear)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_SummaryUpdate(benchmark::State& state) {
  workload::WorkloadGenerator gen(workload::table1_spec(), 3);
  std::vector<pubsub::Subscription> subs;
  for (int i = 0; i < 4096; ++i) subs.push_back(gen.make_subscription());
  std::size_t i = 0;
  core::ZoneState z(core::ZoneAddr{});
  for (auto _ : state) {
    const auto& s = subs[i & 4095];
    benchmark::DoNotOptimize(z.add_subscription(core::StoredSub{
        core::SubId{i, std::uint32_t(i), core::SubIdKind::kSubscriber}, s,
        s.range()}));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SummaryUpdate);

void BM_BruteForceMatch(benchmark::State& state) {
  // Reference point: linear scan over N subscriptions (what a centralized
  // broker — or the Ferry rendezvous — pays per event).
  workload::WorkloadGenerator gen(workload::table1_spec(), 4);
  std::vector<pubsub::Subscription> subs;
  const std::size_t n = std::size_t(state.range(0));
  for (std::size_t i = 0; i < n; ++i) subs.push_back(gen.make_subscription());
  std::vector<Point> pts;
  for (int i = 0; i < 64; ++i) pts.push_back(gen.make_event().point);
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t matched = 0;
    const Point& p = pts[i++ & 63];
    for (const auto& s : subs) matched += s.matches(p);
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BruteForceMatch)->Arg(1024)->Arg(17400);

// ---------------------------------------------------------------------------
// Machine-readable subs-per-zone sweep
// ---------------------------------------------------------------------------

struct SweepRow {
  std::size_t subs = 0;
  double matches_per_event = 0.0;
  double ns_indexed = 0.0;
  double ns_scan = 0.0;
};

/// Average ns per match() call, running at least `min_events` calls and at
/// least ~20 ms of wall time.
double time_match(const core::ZoneState& z, const std::vector<Point>& pts,
                  std::size_t min_events) {
  using clock = std::chrono::steady_clock;
  std::vector<core::SubId> out;
  std::size_t done = 0;
  double elapsed_ns = 0.0;
  while (done < min_events || elapsed_ns < 2e7) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      out.clear();
      z.match(pts[i], pts[i], out);
      benchmark::DoNotOptimize(out.data());
    }
    elapsed_ns += double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             clock::now() - t0)
                             .count());
    done += pts.size();
  }
  return elapsed_ns / double(done);
}

SweepRow sweep_point(std::size_t subs) {
  SweepRow row;
  row.subs = subs;
  const auto indexed =
      make_zone(subs, 1, core::ZoneState::kDefaultIndexThreshold);
  const auto linear = make_zone(subs, 1, kNever);
  workload::WorkloadGenerator gen(workload::table1_spec(), 2);
  std::vector<Point> pts;
  for (int i = 0; i < 256; ++i) pts.push_back(gen.make_event().point);

  std::vector<core::SubId> out;
  std::size_t matched = 0;
  for (const auto& p : pts) {
    out.clear();
    indexed.match(p, p, out);
    matched += out.size();
  }
  row.matches_per_event = double(matched) / double(pts.size());
  row.ns_indexed = time_match(indexed, pts, 4096);
  row.ns_scan = time_match(linear, pts, 512);
  return row;
}

struct BuildRow {
  std::size_t subs = 0;
  double ns_one_shot = 0.0;     ///< per subscription, SubIndex::assign
  double ns_incremental = 0.0;  ///< per subscription, one insert() each
};

/// Average ns per subscription of building a SubIndex over `ranges` with
/// `build`, repeating for at least ~20 ms of wall time.
template <typename F>
double time_build(const std::vector<HyperRect>& ranges, F&& build) {
  using clock = std::chrono::steady_clock;
  std::size_t builds = 0;
  double elapsed_ns = 0.0;
  while (builds < 3 || elapsed_ns < 2e7) {
    const auto t0 = clock::now();
    core::SubIndex idx;
    build(idx);
    benchmark::DoNotOptimize(idx.size());
    elapsed_ns += double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             clock::now() - t0)
                             .count());
    ++builds;
  }
  return elapsed_ns / double(builds * ranges.size());
}

BuildRow build_point(std::size_t subs) {
  BuildRow row;
  row.subs = subs;
  workload::WorkloadGenerator gen(workload::table1_spec(), 1);
  std::vector<HyperRect> ranges;
  for (std::size_t i = 0; i < subs; ++i) {
    ranges.push_back(gen.make_subscription().range());
  }
  row.ns_one_shot =
      time_build(ranges, [&](core::SubIndex& idx) { idx.assign(ranges); });
  row.ns_incremental = time_build(ranges, [&](core::SubIndex& idx) {
    for (const HyperRect& r : ranges) idx.insert(r);
  });
  return row;
}

struct RemoveRow {
  std::size_t subs = 0;
  double ns_per_remove = 0.0;
  double face_share = 0.0;  ///< share of subs attaining a summary face
  double face_victims = 0.0;  ///< share of timed removals that did
};

/// True if `r` attains at least one face of `summary`.
bool attains_face(const HyperRect& r, const HyperRect& summary) {
  for (std::size_t d = 0; d < r.dimensions(); ++d) {
    if (r.dim(d).lo == summary.dim(d).lo || r.dim(d).hi == summary.dim(d).hi) {
      return true;
    }
  }
  return false;
}

/// Average ns per remove_subscription on an indexed zone holding `subs`
/// table1 subscriptions. Each round removes 64 victims back to back
/// (timed) and re-adds them (untimed), so the zone keeps its size; a
/// quarter of the victims attain a face of the zone's summary, the rest
/// are drawn uniformly. Rounds repeat for at least ~20 ms of removals.
RemoveRow remove_point(std::size_t subs) {
  using clock = std::chrono::steady_clock;
  constexpr std::size_t kBatch = 64;
  RemoveRow row;
  row.subs = subs;
  core::ZoneState z(core::ZoneAddr{});
  workload::WorkloadGenerator gen(workload::table1_spec(), 1);
  std::vector<core::StoredSub> stored;
  for (std::size_t i = 0; i < subs; ++i) {
    const auto sub = gen.make_subscription();
    stored.push_back(core::StoredSub{
        core::SubId{i, std::uint32_t(i), core::SubIdKind::kSubscriber}, sub,
        sub.range()});
    z.add_subscription(stored.back());
  }
  std::vector<std::size_t> on_face;
  for (std::size_t i = 0; i < subs; ++i) {
    if (attains_face(stored[i].projected, z.summary())) on_face.push_back(i);
  }
  row.face_share = double(on_face.size()) / double(subs);

  Rng rng(7);
  std::vector<std::size_t> victims;
  std::size_t removed = 0;
  std::size_t face_removed = 0;
  double elapsed_ns = 0.0;
  while (removed < 4 * kBatch || elapsed_ns < 2e7) {
    victims.clear();
    while (victims.size() < kBatch) {
      const std::size_t v = victims.size() % 4 == 0 && !on_face.empty()
                                ? on_face[rng.index(on_face.size())]
                                : rng.index(subs);
      if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
        victims.push_back(v);
      }
    }
    for (const std::size_t v : victims) {
      face_removed += attains_face(stored[v].projected, z.summary()) ? 1 : 0;
    }
    const auto t0 = clock::now();
    for (const std::size_t v : victims) {
      benchmark::DoNotOptimize(z.remove_subscription(stored[v].owner));
    }
    elapsed_ns += double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             clock::now() - t0)
                             .count());
    removed += victims.size();
    for (const std::size_t v : victims) z.add_subscription(stored[v]);
  }
  row.ns_per_remove = elapsed_ns / double(removed);
  row.face_victims = double(face_removed) / double(removed);
  return row;
}

bool run_sweep(const std::string& json_path, bool quick) {
  // Quick mode (CI bench-sanity): only the 1000-subs point — enough to
  // catch an index regression without minutes of sweep time.
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{1000}
            : std::vector<std::size_t>{1000, 10000, 50000, 100000};
  std::vector<SweepRow> rows;
  std::printf("\nsubs-per-zone sweep (table1 workload):\n");
  std::printf("%10s %14s %14s %12s %9s\n", "subs", "matches/event",
              "ns/ev indexed", "ns/ev scan", "speedup");
  for (const std::size_t n : sizes) {
    rows.push_back(sweep_point(n));
    const auto& r = rows.back();
    std::printf("%10zu %14.1f %14.0f %12.0f %8.1fx\n", r.subs,
                r.matches_per_event, r.ns_indexed, r.ns_scan,
                r.ns_scan / r.ns_indexed);
  }

  std::vector<BuildRow> builds;
  std::printf("\nindex build cost per subscription (table1 workload):\n");
  std::printf("%10s %14s %16s %9s\n", "subs", "ns one-shot", "ns incremental",
              "ratio");
  for (const std::size_t n : {std::size_t{1000}, std::size_t{10000}}) {
    builds.push_back(build_point(n));
    const auto& b = builds.back();
    std::printf("%10zu %14.0f %16.0f %8.1fx\n", b.subs, b.ns_one_shot,
                b.ns_incremental, b.ns_incremental / b.ns_one_shot);
  }

  // All three points in quick mode too: the CI gate compares 50k with 1k.
  std::vector<RemoveRow> removes;
  std::printf("\nremove_subscription cost (indexed zone, table1 workload):\n");
  std::printf("%10s %12s %12s %14s\n", "subs", "ns/remove", "face subs",
              "face victims");
  for (const std::size_t n :
       {std::size_t{1000}, std::size_t{10000}, std::size_t{50000}}) {
    removes.push_back(remove_point(n));
    const auto& r = removes.back();
    std::printf("%10zu %12.0f %11.1f%% %13.1f%%\n", r.subs, r.ns_per_remove,
                100.0 * r.face_share, 100.0 * r.face_victims);
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_match\",\n");
  hypersub::bench::write_host_json(f);
  std::fprintf(f, "  \"workload\": \"table1\",\n");
  std::fprintf(f, "  \"index_threshold\": %zu,\n",
               core::ZoneState::kDefaultIndexThreshold);
  std::fprintf(f, "  \"events_sampled\": 256,\n");
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"subs_per_zone\": %zu, \"matches_per_event\": %.2f, "
                 "\"ns_per_event_indexed\": %.1f, \"ns_per_event_scan\": "
                 "%.1f, \"speedup\": %.2f}%s\n",
                 r.subs, r.matches_per_event, r.ns_indexed, r.ns_scan,
                 r.ns_scan / r.ns_indexed, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"build\": [\n");
  for (std::size_t i = 0; i < builds.size(); ++i) {
    const auto& b = builds[i];
    std::fprintf(f,
                 "    {\"subs_per_zone\": %zu, \"ns_per_sub_one_shot\": %.1f, "
                 "\"ns_per_sub_incremental\": %.1f}%s\n",
                 b.subs, b.ns_one_shot, b.ns_incremental,
                 i + 1 < builds.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"remove\": [\n");
  for (std::size_t i = 0; i < removes.size(); ++i) {
    const auto& r = removes[i];
    std::fprintf(f,
                 "    {\"subs_per_zone\": %zu, \"ns_per_remove\": %.1f, "
                 "\"face_sub_share\": %.4f, \"face_victim_share\": %.4f}%s\n",
                 r.subs, r.ns_per_remove, r.face_share, r.face_victims,
                 i + 1 < removes.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_match.json";
  bool sweep = true;
  bool quick = false;
  // Strip our flags before google-benchmark sees the argument list.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--no-sweep") == 0) {
      sweep = false;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (sweep && !run_sweep(json_path, quick)) return 1;
  return 0;
}
