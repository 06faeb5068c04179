// Engine epoch-loop microbenchmark: epochs/second with the incremental
// placement cache on vs. the full per-epoch rescan (EngineConfig::
// incremental_placement = false, the pre-cache hot loop).
//
// A multi-job mix (4 domains x 12 threads on Amd48) runs at several
// footprints with allocator churn active, so dirty events flow every epoch.
// The machine uses 1 MiB frames to reach page counts where the per-epoch
// rescan dominates, exactly the regime the cache is for. Jobs never finish
// within the measured window; every epoch exercises the full refresh +
// distributions + fixed-point pipeline.
//
// Timing protocol: each trial runs N epochs and times epochs 2..N from the
// end of the first epoch (an epoch hook reads the clock), which leaves the
// one-time init (page touching, first full rescan) out of the rate without
// subtracting a second, separately timed run.
// The fault-layer and observability overheads come from 11 interleaved
// unarmed/armed trials per config (median and IQR; see MeasureOverheads).
//
// Output: one JSON document on stdout (tools/run_bench.sh tees it into
// BENCH_engine.json at the repo root).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/experiment_runner.h"
#include "src/guest/guest_os.h"
#include "src/hv/hypervisor.h"
#include "src/hv/p2m.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"
#include "src/sim/engine.h"
#include "src/workload/app_profile.h"

namespace xnuma {
namespace {

constexpr int64_t kBytesPerFrame = 1ll << 20;  // 1 MiB frames
constexpr int kJobs = 4;
constexpr int kThreads = 12;
constexpr int kEpochs = 1000;  // long enough that epoch cost, not init or timer jitter, dominates

struct BenchConfig {
  const char* name;
  double footprint_mb;  // per job
};

AppProfile BenchApp(double footprint_mb) {
  AppProfile app;
  app.name = "epoch-bench";
  app.cpu_cycles_per_access = 150;
  app.nominal_seconds = 1e6;  // never finishes inside the measured window
  app.release_rate_per_s = 20000.0;  // allocator churn feeds the dirty sets
  RegionSpec shared;
  shared.name = "shared";
  shared.footprint_mb = footprint_mb * 0.75;
  shared.init = AllocPattern::kMasterInit;
  shared.access_share = 0.6;
  shared.hot_fraction = 0.1;
  shared.hot_share = 0.8;
  app.regions.push_back(shared);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = footprint_mb * 0.25;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.4;
  priv.owner_affinity = 0.9;
  app.regions.push_back(priv);
  return app;
}

struct RunStats {
  double wall_s = 0.0;
  int64_t epochs = 0;
};

// Runs `epochs` epochs; times every epoch after the first.
RunStats RunOnce(const AppProfile& app, bool incremental, int epochs,
                 bool fault_armed = false, bool with_obs = false) {
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo, kBytesPerFrame);
  // Full observability (metrics + tracing) attached before domains exist,
  // exactly how the CLI wires it. run_bench.sh asserts the rate cost of
  // carrying it through every hot path stays under 3%.
  Observability obs;
  if (with_obs) {
    hv.set_observability(&obs);
  }
  LatencyModel latency;
  EngineConfig ec;
  ec.seed = 7;
  ec.incremental_placement = incremental;
  ec.max_sim_seconds = epochs * ec.epoch_seconds;
  if (fault_armed) {
    // The fault layer enabled at probability 0: every injection hook is
    // reached but never draws. tools/run_bench.sh asserts this costs < 2%.
    ec.fault.enabled = true;
    ec.fault.seed = 99;
  }

  std::vector<std::unique_ptr<GuestOs>> guests;
  Engine engine(hv, latency, ec);
  const int64_t pages = AppSimPages(app, kBytesPerFrame, ec.min_region_pages);
  for (int j = 0; j < kJobs; ++j) {
    DomainConfig dc;
    dc.name = "dom" + std::to_string(j);
    dc.num_vcpus = kThreads;
    dc.memory_pages = pages + 64;
    for (int t = 0; t < kThreads; ++t) {
      dc.pinned_cpus.push_back(j * kThreads + t);
    }
    dc.policy.placement = StaticPolicy::kFirstTouch;
    const DomainId dom = hv.CreateDomain(dc);
    guests.push_back(std::make_unique<GuestOs>(hv, dom));
    JobSpec spec;
    spec.app = &app;
    spec.domain = dom;
    spec.guest = guests.back().get();
    spec.threads = kThreads;
    engine.AddJob(spec);
  }

  using Clock = std::chrono::steady_clock;
  Clock::time_point first_end;
  Clock::time_point last_end;
  int64_t seen = 0;
  engine.set_epoch_hook([&](double) {
    last_end = Clock::now();
    if (++seen == 1) {
      first_end = last_end;
    }
  });
  engine.Run();
  RunStats stats;
  stats.wall_s = std::chrono::duration<double>(last_end - first_end).count();
  stats.epochs = engine.epochs_run() - 1;
  return stats;
}

// P2M memory footprint: the live mapping store vs a flat 8-byte-per-page
// array, per placement policy. Round-1G places whole regions through
// MapRange, the representation's compression case (handfuls of extents);
// first-touch under 12 interleaved touching threads is the adversarial
// case — chunks fragment past the pack threshold and converge on the flat
// array's cost plus chunk headers, the designed floor. Measured right
// after placement (1 epoch) and after sustained allocator churn (50
// epochs). tools/run_bench.sh gates the round-1G post-init ratio.
struct P2mMemory {
  int64_t pages_per_job = 0;
  int64_t flat_bytes_per_job = 0;
  int64_t table_bytes_per_job = 0;  // averaged over the kJobs domains
};

P2mMemory MeasureP2mMemory(const AppProfile& app, StaticPolicy placement, int epochs) {
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo, kBytesPerFrame);
  LatencyModel latency;
  EngineConfig ec;
  ec.seed = 7;
  ec.incremental_placement = true;
  ec.max_sim_seconds = epochs * ec.epoch_seconds;
  std::vector<std::unique_ptr<GuestOs>> guests;
  std::vector<DomainId> doms;
  Engine engine(hv, latency, ec);
  const int64_t pages = AppSimPages(app, kBytesPerFrame, ec.min_region_pages);
  for (int j = 0; j < kJobs; ++j) {
    DomainConfig dc;
    dc.name = "dom" + std::to_string(j);
    dc.num_vcpus = kThreads;
    dc.memory_pages = pages + 64;
    for (int t = 0; t < kThreads; ++t) {
      dc.pinned_cpus.push_back(j * kThreads + t);
    }
    dc.policy.placement = placement;
    const DomainId dom = hv.CreateDomain(dc);
    doms.push_back(dom);
    guests.push_back(std::make_unique<GuestOs>(hv, dom));
    JobSpec spec;
    spec.app = &app;
    spec.domain = dom;
    spec.guest = guests.back().get();
    spec.threads = kThreads;
    engine.AddJob(spec);
  }
  engine.Run();
  P2mMemory m;
  m.pages_per_job = pages + 64;
  m.flat_bytes_per_job = m.pages_per_job * 8;
  int64_t table = 0;
  for (DomainId d : doms) {
    table += hv.domain(d).p2m().MemoryBytes();
  }
  m.table_bytes_per_job = table / kJobs;
  return m;
}

// --- Page-order ladder (docs/MODEL.md §14) --------------------------------
//
// A big round-1G-placed domain at real 4 KiB page geometry (2M = 512 pages,
// 1G = 262144), measured directly on a P2mTable at each max order. A
// run-by-run LookupRun sweep over the whole domain counts the walks it
// takes: one native 1G entry answers its whole 256K-page span in one walk,
// where the 4K store needs one per 512-page chunk, so both the walk count
// and the mapping-store footprint must collapse as the max order grows.
// tools/run_bench.sh gates the 1G-vs-4K ratios at >= 5x and ratchets them
// in tools/bench_ratchet.json; the numbers are deterministic (counts and
// bytes, not wall time).

struct P2mOrderStats {
  int64_t pages = 0;
  int64_t sweep_walks = 0;
  int64_t table_bytes = 0;
  int64_t sp_2m = 0;
  int64_t sp_1g = 0;
};

P2mOrderStats MeasureP2mOrder(PageOrder max_order) {
  constexpr int64_t kOrderPages = 4ll << 20;   // 16 GiB of 4 KiB pages
  constexpr int64_t kPagesPer2m = 512;
  constexpr int64_t kPagesPer1g = 262144;
  P2mTable p2m(kOrderPages);
  p2m.ConfigureOrders(max_order, kPagesPer2m, kPagesPer1g);
  // Round-1G placement: each 1 GiB region is one contiguous machine run,
  // regions deliberately non-adjacent (different nodes' frame pools).
  for (int64_t r = 0; r < kOrderPages / kPagesPer1g; ++r) {
    p2m.MapRange(r * kPagesPer1g, kPagesPer1g, (2 * r + 1) * kPagesPer1g);
  }
  P2mOrderStats st;
  st.pages = kOrderPages;
  for (Pfn p = 0; p < kOrderPages; ++st.sweep_walks) {
    const P2mTable::Run run = p2m.LookupRun(p);
    if (!run.valid) {
      std::fprintf(stderr, "p2m_order: unmapped page %lld\n",
                   static_cast<long long>(p));
      std::exit(1);
    }
    p = run.first + run.count;
  }
  st.table_bytes = p2m.MemoryBytes();
  st.sp_2m = p2m.SuperpageCount(PageOrder::k2M);
  st.sp_1g = p2m.SuperpageCount(PageOrder::k1G);
  return st;
}

// Steady-state epochs/second of one trial.
double EpochsPerSecond(const AppProfile& app, bool incremental, bool fault_armed = false,
                       bool with_obs = false) {
  const RunStats run = RunOnce(app, incremental, kEpochs, fault_armed, with_obs);
  return run.wall_s > 0.0 ? run.epochs / run.wall_s : 0.0;
}

// Best of 5 trials: the max rate is the least-interference estimate of the
// true speed (the full-rescan baseline).
double BestEpochsPerSecond(const AppProfile& app, bool incremental) {
  double best = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    best = std::max(best, EpochsPerSecond(app, incremental));
  }
  return best;
}

// Median and interquartile range (linear interpolation between order
// statistics) of `v`.
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

Spread MedianAndIqr(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto quantile = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {quantile(0.5), quantile(0.75) - quantile(0.25)};
}

// Hook overheads from interleaved trials. Each trial times the unarmed
// incremental engine, the fault layer armed at p=0 and full observability
// back to back, rotating their order from trial to trial, and turns the two
// armed rates into percentages of that same trial's unarmed rate. Host
// drift between trials then cancels inside each pair; the median over the
// trials is what tools/run_bench.sh gates, and the IQR is the noise band.
constexpr int kOverheadTrials = 11;

struct Overheads {
  double incremental_best = 0.0;  // best unarmed rate: the ratchet's number
  double fault_p0_best = 0.0;
  double obs_best = 0.0;
  Spread fault_pct;
  Spread obs_pct;
};

Overheads MeasureOverheads(const AppProfile& app) {
  Overheads out;
  std::vector<double> fault_pct;
  std::vector<double> obs_pct;
  for (int trial = 0; trial < kOverheadTrials; ++trial) {
    double rate[3] = {0.0, 0.0, 0.0};  // unarmed, fault p0, obs
    for (int k = 0; k < 3; ++k) {
      const int variant = (trial + k) % 3;
      rate[variant] = EpochsPerSecond(app, /*incremental=*/true,
                                      /*fault_armed=*/variant == 1,
                                      /*with_obs=*/variant == 2);
    }
    out.incremental_best = std::max(out.incremental_best, rate[0]);
    out.fault_p0_best = std::max(out.fault_p0_best, rate[1]);
    out.obs_best = std::max(out.obs_best, rate[2]);
    if (rate[0] > 0.0) {
      fault_pct.push_back((1.0 - rate[1] / rate[0]) * 100.0);
      obs_pct.push_back((1.0 - rate[2] / rate[0]) * 100.0);
    }
  }
  if (!fault_pct.empty()) {
    out.fault_pct = MedianAndIqr(fault_pct);
    out.obs_pct = MedianAndIqr(obs_pct);
  }
  return out;
}

// --- Parallel experiment matrix (src/exec/ParallelRunner) -----------------
//
// A RunSpec matrix (app x stack x seed) is driven through the runner at
// jobs=1 (the exact serial loop) and jobs=4, timing each. Results must be
// bit-identical; the throughput ratio is archived as "parallel_matrix" in
// BENCH_engine.json and gated by tools/run_bench.sh on hosts with >= 4
// cores.

std::vector<RunSpec> MatrixSpecs() {
  std::vector<RunSpec> specs;
  const char* apps[] = {"cg.C", "ft.C", "sp.C", "kmeans"};
  const uint64_t seeds[] = {7, 11, 13};
  for (const char* name : apps) {
    AppProfile app = *FindApp(name);
    const double scale = 2.0 / app.nominal_seconds;
    app.nominal_seconds = 2.0;
    app.disk_read_mb *= scale;
    for (int xen : {0, 1}) {
      for (uint64_t seed : seeds) {
        RunSpec spec;
        spec.app = app;
        spec.stack = xen ? XenPlusStack() : LinuxStack();
        spec.options.seed = seed;
        spec.options.engine.max_sim_seconds = 60.0;
        spec.label = std::string(name) + "/" + spec.stack.label + "/s" + std::to_string(seed);
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

struct MatrixStats {
  double wall_s = 0.0;
  std::vector<RunOutcome> outcomes;
};

MatrixStats RunMatrix(const std::vector<RunSpec>& specs, int jobs) {
  ParallelRunner::Options opt;
  opt.jobs = jobs;
  const ParallelRunner runner(opt);
  const auto start = std::chrono::steady_clock::now();
  MatrixStats stats;
  stats.outcomes = runner.RunAll(specs);
  const auto end = std::chrono::steady_clock::now();
  stats.wall_s = std::chrono::duration<double>(end - start).count();
  return stats;
}

bool SameOutcomes(const std::vector<RunOutcome>& a, const std::vector<RunOutcome>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].ok != b[i].ok ||
        a[i].result.completion_seconds != b[i].result.completion_seconds ||
        a[i].result.avg_latency_cycles != b[i].result.avg_latency_cycles ||
        a[i].result.imbalance_pct != b[i].result.imbalance_pct ||
        a[i].result.hv_page_faults != b[i].result.hv_page_faults) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace xnuma

int main() {
  using namespace xnuma;
  const BenchConfig configs[] = {
      {"1gb_per_job", 1024.0},
      {"4gb_per_job", 4096.0},
      {"16gb_per_job", 16384.0},
  };

  std::printf("{\n  \"bench\": \"micro_engine_epoch\",\n");
  std::printf("  \"machine\": \"amd48\",\n  \"frame_mb\": %lld,\n",
              static_cast<long long>(kBytesPerFrame >> 20));
  std::printf("  \"jobs\": %d,\n  \"threads_per_job\": %d,\n  \"epochs\": %d,\n", kJobs,
              kThreads, kEpochs);
  std::printf("  \"overhead_trials\": %d,\n", kOverheadTrials);
  std::printf("  \"configs\": [\n");
  bool first = true;
  double overhead_sum_pct = 0.0;
  double overhead_iqr_sum_pct = 0.0;
  double obs_overhead_sum_pct = 0.0;
  double obs_overhead_iqr_sum_pct = 0.0;
  int overhead_samples = 0;
  for (const BenchConfig& cfg : configs) {
    const AppProfile app = BenchApp(cfg.footprint_mb);
    const int64_t pages = AppSimPages(app, kBytesPerFrame, EngineConfig{}.min_region_pages);
    const double full = BestEpochsPerSecond(app, /*incremental=*/false);
    const Overheads o = MeasureOverheads(app);
    const double incr = o.incremental_best;
    overhead_sum_pct += o.fault_pct.median;
    overhead_iqr_sum_pct += o.fault_pct.iqr;
    obs_overhead_sum_pct += o.obs_pct.median;
    obs_overhead_iqr_sum_pct += o.obs_pct.iqr;
    ++overhead_samples;
    if (!first) {
      std::printf(",\n");
    }
    first = false;
    std::printf("    {\"name\": \"%s\", \"pages_per_job\": %lld,\n", cfg.name,
                static_cast<long long>(pages));
    std::printf("     \"full_rescan_epochs_per_s\": %.2f,\n", full);
    std::printf("     \"incremental_epochs_per_s\": %.2f,\n", incr);
    std::printf("     \"fault_p0_epochs_per_s\": %.2f,\n", o.fault_p0_best);
    std::printf("     \"fault_p0_overhead_pct\": %.2f,\n", o.fault_pct.median);
    std::printf("     \"fault_p0_overhead_iqr_pct\": %.2f,\n", o.fault_pct.iqr);
    std::printf("     \"obs_epochs_per_s\": %.2f,\n", o.obs_best);
    std::printf("     \"obs_overhead_pct\": %.2f,\n", o.obs_pct.median);
    std::printf("     \"obs_overhead_iqr_pct\": %.2f,\n", o.obs_pct.iqr);
    std::printf("     \"speedup\": %.2f}", full > 0.0 ? incr / full : 0.0);
    std::fflush(stdout);
  }
  std::printf("\n  ],\n");

  // Extent-table memory vs the flat per-page array it replaced (§13 of
  // docs/MODEL.md): post-init ratios must stay sub-linear as footprints
  // grow; post-churn shows the packed-chunk worst case.
  std::printf("  \"p2m_memory\": [\n");
  first = true;
  const struct {
    const char* label;
    StaticPolicy placement;
  } placements[] = {{"round_1g", StaticPolicy::kRound1g},
                    {"first_touch", StaticPolicy::kFirstTouch}};
  for (const BenchConfig& cfg : configs) {
    const AppProfile app = BenchApp(cfg.footprint_mb);
    for (const auto& pl : placements) {
      const P2mMemory init = MeasureP2mMemory(app, pl.placement, /*epochs=*/1);
      const P2mMemory churn = MeasureP2mMemory(app, pl.placement, /*epochs=*/50);
      if (!first) {
        std::printf(",\n");
      }
      first = false;
      std::printf("    {\"name\": \"%s\", \"placement\": \"%s\",\n", cfg.name, pl.label);
      std::printf("     \"pages_per_job\": %lld,\n",
                  static_cast<long long>(init.pages_per_job));
      std::printf("     \"flat_bytes_per_job\": %lld,\n",
                  static_cast<long long>(init.flat_bytes_per_job));
      std::printf("     \"post_init_bytes_per_job\": %lld,\n",
                  static_cast<long long>(init.table_bytes_per_job));
      std::printf("     \"post_init_ratio\": %.4f,\n",
                  static_cast<double>(init.table_bytes_per_job) / init.flat_bytes_per_job);
      std::printf("     \"post_churn_bytes_per_job\": %lld,\n",
                  static_cast<long long>(churn.table_bytes_per_job));
      std::printf("     \"post_churn_ratio\": %.4f}",
                  static_cast<double>(churn.table_bytes_per_job) / churn.flat_bytes_per_job);
      std::fflush(stdout);
    }
  }
  std::printf("\n  ],\n");

  // Page-order ladder: run walks per sweep and mapping-store bytes for a
  // 16 GiB round-1G domain at each max order (deterministic counts).
  std::printf("  \"p2m_order\": [\n");
  const struct {
    const char* name;
    PageOrder order;
  } orders[] = {{"4k", PageOrder::k4K}, {"2m", PageOrder::k2M}, {"1g", PageOrder::k1G}};
  P2mOrderStats base_4k;
  P2mOrderStats top_1g;
  first = true;
  for (const auto& o : orders) {
    const P2mOrderStats st = MeasureP2mOrder(o.order);
    if (o.order == PageOrder::k4K) {
      base_4k = st;
    } else if (o.order == PageOrder::k1G) {
      top_1g = st;
    }
    if (!first) {
      std::printf(",\n");
    }
    first = false;
    std::printf("    {\"name\": \"%s\", \"pages\": %lld,\n", o.name,
                static_cast<long long>(st.pages));
    std::printf("     \"superpages_2m\": %lld, \"superpages_1g\": %lld,\n",
                static_cast<long long>(st.sp_2m), static_cast<long long>(st.sp_1g));
    std::printf("     \"sweep_walks\": %lld,\n", static_cast<long long>(st.sweep_walks));
    std::printf("     \"table_bytes\": %lld,\n", static_cast<long long>(st.table_bytes));
    std::printf("     \"bytes_per_page\": %.6f}",
                static_cast<double>(st.table_bytes) / st.pages);
    std::fflush(stdout);
  }
  std::printf("\n  ],\n");
  std::printf("  \"p2m_order_walk_ratio_1g_vs_4k\": %.2f,\n",
              top_1g.sweep_walks > 0
                  ? static_cast<double>(base_4k.sweep_walks) / top_1g.sweep_walks
                  : 0.0);
  std::printf("  \"p2m_order_mem_ratio_1g_vs_4k\": %.2f,\n",
              top_1g.table_bytes > 0
                  ? static_cast<double>(base_4k.table_bytes) / top_1g.table_bytes
                  : 0.0);
  // Means over the configs of the per-config medians (and IQRs).
  const double n_configs = std::max(1, overhead_samples);
  std::printf("  \"fault_p0_mean_overhead_pct\": %.2f,\n", overhead_sum_pct / n_configs);
  std::printf("  \"fault_p0_mean_overhead_iqr_pct\": %.2f,\n",
              overhead_iqr_sum_pct / n_configs);
  std::printf("  \"obs_mean_overhead_pct\": %.2f,\n", obs_overhead_sum_pct / n_configs);
  std::printf("  \"obs_mean_overhead_iqr_pct\": %.2f,\n", obs_overhead_iqr_sum_pct / n_configs);

  // Parallel matrix throughput: best of 3 trials per jobs value, serial
  // first so the two timings see the same cache state.
  const std::vector<RunSpec> specs = MatrixSpecs();
  double serial_s = 1e18;
  double jobs4_s = 1e18;
  std::vector<RunOutcome> serial_out;
  std::vector<RunOutcome> jobs4_out;
  for (int trial = 0; trial < 3; ++trial) {
    MatrixStats one = RunMatrix(specs, 1);
    MatrixStats four = RunMatrix(specs, 4);
    if (one.wall_s < serial_s) {
      serial_s = one.wall_s;
      serial_out = std::move(one.outcomes);
    }
    if (four.wall_s < jobs4_s) {
      jobs4_s = four.wall_s;
      jobs4_out = std::move(four.outcomes);
    }
  }
  const bool identical = SameOutcomes(serial_out, jobs4_out);
  std::printf("  \"parallel_matrix\": {\n");
  std::printf("    \"specs\": %d,\n", static_cast<int>(specs.size()));
  std::printf("    \"host_cores\": %u,\n", std::thread::hardware_concurrency());
  std::printf("    \"serial_s\": %.3f,\n", serial_s);
  std::printf("    \"jobs4_s\": %.3f,\n", jobs4_s);
  std::printf("    \"speedup_jobs4\": %.2f,\n", jobs4_s > 0.0 ? serial_s / jobs4_s : 0.0);
  std::printf("    \"results_identical\": %s\n  }\n}\n", identical ? "true" : "false");
  return identical ? 0 : 1;
}
