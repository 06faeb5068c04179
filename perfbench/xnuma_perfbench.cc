// End-to-end benchmark binary for the xnuma simulator (see README.md here).
//
// Drives the simulator only through its public entry points —
// SweepPolicies/RunSingleApp, Hypervisor + ChurnRunner::Run, and the
// Observability registry/tracer — and times each call from the outside.
//
//   xnuma_perfbench --workload paper_sweep|mosbench_carrefour|tenant_churn
//                   [--seconds S] [--trace 0|1] [--seed N]
//                   [--chrome_trace FILE] [--commit ID] [--smoke]
//
// Untraced passes give the end-to-end metrics (--trace 0). --trace 1 adds
// one traced pass with observability attached and reports the per-layer
// metrics instead, plus a Chrome trace of that pass. Every pass is checked:
// each run must finish with finite results, and its digest must match the
// same run in every other pass (untraced, traced, and — for paper_sweep —
// the serial sweep against the two-worker one).
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
// Lines before it are human-readable context: host, seeds, digests, and the
// workload-specific figures (sim_s_per_host_s, table4_match, ...).

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/admission/churn_runner.h"
#include "src/common/flags.h"
#include "src/core/experiment.h"
#include "src/hv/hypervisor.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"
#include "src/workload/app_profile.h"
#include "src/workload/churn.h"

namespace {

using namespace xnuma;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Small statistics and digest helpers.

// Nearest-rank percentile of `v` (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) {
    s += x;
  }
  return s;
}

// FNV-1a 64 over full bit patterns, so a digest moves with any output bit.
class Digest {
 public:
  void Mix(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void MixDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  void MixString(const std::string& s) {
    Mix(s.size());
    for (const char c : s) {
      Mix(static_cast<unsigned char>(c));
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

uint64_t JobDigest(const JobResult& r) {
  Digest d;
  d.MixString(r.app);
  d.Mix(static_cast<uint64_t>(r.domain));
  d.Mix(r.finished ? 1 : 0);
  for (const double x : {r.completion_seconds, r.init_seconds, r.compute_seconds,
                         r.imbalance_pct, r.interconnect_pct, r.avg_mc_util_pct,
                         r.avg_latency_cycles, r.observed_disk_mb_per_s,
                         r.observed_ctx_switches_per_s}) {
    d.MixDouble(x);
  }
  for (const int64_t x : {r.hv_page_faults, r.carrefour_migrations, r.faults_injected,
                          r.faults_recovered, r.faults_aborted, r.local_walks,
                          r.remote_walks}) {
    d.Mix(static_cast<uint64_t>(x));
  }
  d.Mix(static_cast<uint64_t>(r.final_policy.placement));
  d.Mix(r.final_policy.carrefour ? 1 : 0);
  d.Mix(r.final_policy.vnuma ? 1 : 0);
  d.Mix(static_cast<uint64_t>(r.policy_switches));
  return d.value();
}

// A run counts as failed unless it finished with every field finite.
bool JobSane(const JobResult& r) {
  if (!r.finished) {
    return false;
  }
  for (const double x : {r.completion_seconds, r.init_seconds, r.compute_seconds,
                         r.imbalance_pct, r.interconnect_pct, r.avg_mc_util_pct,
                         r.avg_latency_cycles, r.observed_disk_mb_per_s,
                         r.observed_ctx_switches_per_s}) {
    if (!std::isfinite(x)) {
      return false;
    }
  }
  return r.completion_seconds > 0.0;
}

// Wall-clock solver latencies are left out: they are the only non-simulated
// fields of a ChurnReport.
uint64_t ChurnDigest(const ChurnReport& r) {
  Digest d;
  for (const int64_t x : {r.events, r.arrivals, r.admitted, r.deferred, r.rejected,
                          r.departures, r.balloon_down_pages, r.balloon_up_pages,
                          r.migrated_pages}) {
    d.Mix(static_cast<uint64_t>(x));
  }
  d.Mix(static_cast<uint64_t>(r.final_live_domains));
  d.MixDouble(r.final_fragmentation);
  d.Mix(r.placement_digest);
  return d.value();
}

// Peak resident set of this process image. VmHWM, unlike getrusage's
// ru_maxrss, does not carry over the launching process's peak across exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

// Host CPUs can differ in speed for seconds at a time (other tenants of a
// shared machine), and a single-threaded run otherwise stays on whichever
// CPU it started on. Rotating serial operations over every CPU the process
// may use spreads each operation's repetitions across them, so one slow CPU
// cannot set a run's figures. Threads inherit affinity, so Release() must
// precede any fan-out.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &all_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  // Pins the calling thread to the slot-th allowed CPU (mod their count).
  void Pin(size_t slot) const {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  void Release() const {
    if (cpus_.size() >= 2) {
      sched_setaffinity(0, sizeof(all_), &all_);
    }
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

// ---------------------------------------------------------------------------
// Result bookkeeping.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Options {
  std::string workload;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  uint64_t seed = 7;  // RunOptions::seed, or ChurnSpec::seed on tenant_churn
  std::string chrome_trace;
};

// Everything one invocation reports. `attempted`/`failed` count public
// calls (runs or churn events) plus their determinism checks.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> info;  // "name value unit" context lines

  void Info(const std::string& name, double value, const std::string& unit) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %.10g %s", name.c_str(), value, unit.c_str());
    info.emplace_back(buf);
  }
  void InfoText(const std::string& name, const std::string& text) {
    info.push_back(name + " " + text);
  }
  // Checks one output against its reference: counts an attempt, and a
  // failure when the output is insane or its digest differs.
  void Check(bool sane, uint64_t digest, uint64_t reference) {
    ++attempted;
    if (!sane || digest != reference) {
      ++failed;
    }
  }
};

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// The program's metrics by name. A metric that was never registered (its
// layer did not run) reads as all zeros.
class Registry {
 public:
  explicit Registry(const MetricsRegistry& m) {
    for (MetricSnapshot& s : m.Snapshot()) {
      by_name_[s.name] = std::move(s);
    }
  }
  const MetricSnapshot& operator[](const std::string& name) const {
    static const MetricSnapshot kAbsent;
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? kAbsent : it->second;
  }

 private:
  std::map<std::string, MetricSnapshot> by_name_;
};

// Counter value, or a histogram's observation count.
double Count(const MetricSnapshot& m) { return static_cast<double>(m.count); }

double HistogramMean(const MetricSnapshot& m) {
  return m.count == 0 ? 0.0 : m.value / static_cast<double>(m.count);
}

// Median of each operation over repeated passes: per_pass[k][i] is the host
// time of operation i in pass k. Taking each operation's median before
// summarising filters the host's slow spells, which last from tens of
// milliseconds to seconds, out of every figure built on it.
std::vector<double> OpMedians(const std::vector<std::vector<double>>& per_pass) {
  std::vector<double> medians;
  if (per_pass.empty()) {
    return medians;
  }
  std::vector<double> column(per_pass.size());
  for (size_t i = 0; i < per_pass[0].size(); ++i) {
    for (size_t k = 0; k < per_pass.size(); ++k) {
      column[k] = per_pass[k][i];
    }
    medians.push_back(Median(column));
  }
  return medians;
}

// Inputs to the per-layer metrics beyond the program's own registry: the
// bench-side timers and the exact simulated outcomes. Every workload
// reports the same set of metrics, zero where a layer does not run.
struct LayerInputs {
  double engine_run_s = 0.0;     // Σ RunSingleApp host time in the traced pass
  double traced_wall_s = 0.0;    // traced pass wall
  double untraced_wall_s = 0.0;  // the same pass untraced (per-op medians)
  double exec_efficiency = 0.0;
  double exec_cell_ms_max = 0.0;
  double p2m_bytes = 0.0;
  double arrive_us = 0.0, depart_us = 0.0, balloon_us = 0.0, migrate_us = 0.0;
  double end_of_run_us = 0.0;     // median host time of an empty ChurnRunner::Run
  double end_of_run_share = 0.0;  // its estimated share of pass_s
  double table4_match = 0.0;
  double deferred_frac = 0.0;
};

std::vector<Metric> PerLayerMetrics(const Registry& r, const LayerInputs& t) {
  std::vector<Metric> out;
  auto add = [&out](const char* name, const char* unit, double v) {
    out.push_back({name, unit, v});
  };
  // sim
  const double solver_s = r["engine.solver.seconds"].value;
  const double refresh_s = r["engine.placement.refresh_seconds"].value;
  const double scan_s = r["carrefour.scan_seconds"].value;
  const double cf_migrate_s = r["carrefour.migrate_seconds"].value;
  const double flush_s = r["pv.queue.flush_wall_seconds"].value;
  // These spans never nest in one another; backend migrations nest inside
  // carrefour_migrate and are not added again.
  const double attributed = solver_s + refresh_s + scan_s + cf_migrate_s + flush_s;
  add("engine.epochs", "count", Count(r["engine.epochs"]));
  add("engine.solver.seconds", "s", solver_s);
  add("engine.solver.seconds_p50", "s", r["engine.solver.seconds"].p50);
  add("engine.solver.iterations", "count", HistogramMean(r["engine.solver.iterations"]));
  add("engine.placement.refresh_seconds", "s", refresh_s);
  add("engine.placement.dirty_events", "count", Count(r["engine.placement.dirty_events"]));
  add("engine.placement.full_rescans", "count", Count(r["engine.placement.full_rescans"]));
  add("engine.other_seconds", "s", t.engine_run_s > 0.0 ? t.engine_run_s - attributed : 0.0);
  add("engine.run_seconds", "s", t.engine_run_s);
  // carrefour
  const double cf_moves =
      Count(r["carrefour.interleave_migrations"]) + Count(r["carrefour.locality_migrations"]);
  const double cf_failed = Count(r["carrefour.failed_migrations"]);
  add("carrefour.ticks", "count", Count(r["carrefour.ticks"]));
  add("carrefour.scan_seconds", "s", scan_s);
  add("carrefour.migrate_seconds", "s", cf_migrate_s);
  add("carrefour.migrations", "count", cf_moves);
  add("carrefour.failed_migrations", "count", cf_failed);
  add("carrefour.migration_success", "ratio",
      cf_moves + cf_failed > 0.0 ? cf_moves / (cf_moves + cf_failed) : 0.0);
  // hv
  add("tlb.hits", "count", Count(r["tlb.hits"]));
  add("tlb.misses", "count", Count(r["tlb.misses"]));
  add("p2m.remaps", "count", Count(r["p2m.remaps"]));
  add("p2m.splits", "count", Count(r["p2m.splits"]));
  add("hv.page_faults", "count", Count(r["hv.page_faults"]));
  add("hv.backend.migrations", "count", Count(r["hv.backend.migrations"]));
  add("hv.backend.migrate_seconds", "s", r["hv.backend.migrate_seconds"].value);
  add("hv.backend.failed_migrations", "count", Count(r["hv.backend.failed_migrations"]));
  add("hv.domains_destroyed", "count", Count(r["hv.domains_destroyed"]));
  add("p2m.bytes", "bytes", t.p2m_bytes);
  // guest
  add("pv.queue.pushes", "count", Count(r["pv.queue.pushes"]));
  add("pv.queue.flushes", "count", Count(r["pv.queue.flushes"]));
  add("pv.queue.flush_batch", "ops", HistogramMean(r["pv.queue.flush_batch"]));
  add("pv.queue.flush_wall_seconds", "s", flush_s);
  // admission
  add("admission.requests", "count", Count(r["admission.requests"]));
  add("admission.candidates", "count", Count(r["admission.candidates"]));
  add("admission.solver_seconds", "s", r["admission.solver_seconds"].value);
  add("admission.solver_seconds_p50", "s", r["admission.solver_seconds"].p50);
  add("admission.solver_seconds_p99", "s", r["admission.solver_seconds"].p99);
  add("churn.arrive_us_p50", "us", t.arrive_us);
  add("churn.depart_us_p50", "us", t.depart_us);
  add("churn.balloon_us_p50", "us", t.balloon_us);
  add("churn.migrate_us_p50", "us", t.migrate_us);
  add("churn.end_of_run_us_p50", "us", t.end_of_run_us);
  add("churn.end_of_run_share", "ratio", t.end_of_run_share);
  // exec
  add("exec.efficiency", "ratio", t.exec_efficiency);
  add("exec.cell_ms_max", "ms", t.exec_cell_ms_max);
  // obs
  add("obs.overhead_pct", "%",
      t.untraced_wall_s > 0.0 ? 100.0 * (t.traced_wall_s / t.untraced_wall_s - 1.0) : 0.0);
  // model: simulated and exact, not host time
  add("model.table4_match", "apps.sim-exact", t.table4_match);
  add("model.deferred_frac", "ratio.sim-exact", t.deferred_frac);
  return out;
}

// Observability for a traced pass: a ring large enough that the whole pass
// fits without wrapping, so the Chrome trace is complete.
constexpr size_t kTraceCapacity = size_t{1} << 19;

void WriteChromeTrace(const Observability& obs, const std::string& path, Report* report) {
  report->Info("trace.dropped_events", static_cast<double>(obs.tracer().dropped()), "events");
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  out << obs.tracer().ToChromeJson();
  report->InfoText("chrome_trace", out ? path : "(write failed: " + path + ")");
}

// Set-up repetitions, timed; setup_s is their median. The first runs before
// anything is measured (the cold start users pay); the others run a few at
// a time between measured passes, so they meet the same host conditions as
// the passes. Repetition r runs on the r-th CPU of the rotation and is
// passed r, for set-ups that pin threads of their own.
class SetupTimer {
 public:
  static constexpr size_t kReps = 21;
  static constexpr size_t kRepsPerGap = 4;

  SetupTimer(const Options& o, const CpuRotation& cpus, std::function<void(int)> setup)
      : reps_(o.smoke ? 1 : kReps), cpus_(cpus), setup_(std::move(setup)) {
    Run(1);
  }
  void Run(size_t n = kRepsPerGap) {
    for (size_t i = 0; i < n && walls_.size() < reps_; ++i) {
      const int rep = static_cast<int>(walls_.size());
      cpus_.Pin(rep);
      const Clock::time_point t0 = Clock::now();
      setup_(rep);
      walls_.push_back(SecondsSince(t0));
      cpus_.Release();
    }
  }
  double median() const { return Median(walls_); }
  size_t reps() const { return walls_.size(); }

 private:
  size_t reps_;
  const CpuRotation& cpus_;
  std::function<void(int)> setup_;
  std::vector<double> walls_;
};

// Warm-ups run on inputs of this fixed seed, so set-up time does not move
// with --seed.
constexpr uint64_t kWarmupSeed = 1;

// Calls pass(k) for k = 0, 1, ... over the measured period (once in smoke
// mode, at least twice otherwise so a digest is always compared), with
// set-up repetitions after each.
int RepeatFor(const Options& o, SetupTimer& setup, const std::function<void(int)>& pass) {
  const Clock::time_point start = Clock::now();
  int k = 0;
  for (; k == 0 || (!o.smoke && (k < 2 || SecondsSince(start) < o.seconds)); ++k) {
    pass(k);
    setup.Run();
  }
  return k;
}

// One RunSingleApp call, timed from outside and checked against the
// cell's `reference` digest, which the first outcome seen sets (adding its
// simulated seconds to `sim_s`). With observability attached the call also
// becomes a span in the Chrome trace.
double TimedRun(const AppProfile& app, const StackConfig& stack, const RunOptions& opts,
                std::optional<uint64_t>* reference, Report* report, double* sim_s = nullptr) {
  const double begin_us = opts.obs != nullptr ? opts.obs->tracer().NowUs() : 0.0;
  const Clock::time_point t0 = Clock::now();
  JobResult r;
  bool ok = true;
  try {
    r = RunSingleApp(app, stack, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "RunSingleApp(%s) threw: %s\n", app.name.c_str(), e.what());
    ok = false;
  }
  const double wall = SecondsSince(t0);
  if (opts.obs != nullptr) {
    opts.obs->tracer().EmitSpan(app.name.c_str(), "bench.run_single_app", begin_us,
                                opts.obs->tracer().NowUs());
  }
  const uint64_t digest = JobDigest(r);
  if (!reference->has_value()) {
    *reference = digest;
    if (sim_s != nullptr) {
      *sim_s += r.completion_seconds;
    }
  }
  report->Check(ok && JobSane(r), digest, **reference);
  return wall;
}

// ---------------------------------------------------------------------------
// paper_sweep: the Table 4 / Fig. 7 Xen+NUMA exhaustive sweep.

// The paper's Table 4 Xen+NUMA column, by app.
const std::map<std::string, std::string>& PaperXenBest() {
  static const std::map<std::string, std::string> kBest = {
      {"bodytrack", "Round-4K / Carrefour"}, {"facesim", "Round-4K"},
      {"fluidanimate", "Round-4K / Carrefour"}, {"streamcluster", "Round-4K"},
      {"swaptions", "Round-4K"}, {"x264", "Round-4K"},
      {"bt.C", "First-Touch / Carrefour"}, {"cg.C", "First-Touch"},
      {"dc.B", "Round-1G"}, {"ep.D", "Round-4K"},
      {"ft.C", "Round-4K"}, {"lu.C", "First-Touch"},
      {"mg.D", "First-Touch"}, {"sp.C", "Round-4K / Carrefour"},
      {"ua.C", "First-Touch"}, {"wc", "Round-4K"},
      {"wr", "Round-4K"}, {"wrmem", "Round-4K"},
      {"pca", "Round-4K / Carrefour"}, {"kmeans", "Round-4K"},
      {"psearchy", "Round-4K"}, {"memcached", "Round-1G"},
      {"belief", "Round-4K / Carrefour"}, {"bfs", "Round-4K"},
      {"cc", "Round-4K / Carrefour"}, {"pagerank", "Round-4K / Carrefour"},
      {"sssp", "Round-4K / Carrefour"}, {"cassandra", "Round-1G"},
      {"mongodb", "Round-1G"},
  };
  return kBest;
}

constexpr int kSweepJobs = 2;

Report PaperSweep(const Options& o) {
  Report report;
  const CpuRotation cpus;
  std::vector<AppProfile> apps;
  std::vector<PolicyConfig> candidates;
  RunOptions opts;
  auto setup = [&](int) {
    apps = ScaledApps(o.smoke ? 0.5 : 5.0);
    if (o.smoke) {
      apps.resize(3);
    }
    candidates = XenPolicyCandidates();
    opts = BenchOptions();
    // Warm-up: the first app under every candidate.
    opts.seed = kWarmupSeed;
    for (const PolicyConfig& candidate : candidates) {
      (void)RunSingleApp(apps[0], XenPlusStack(candidate), opts);
    }
    opts.seed = o.seed;
  };
  SetupTimer setup_timer(o, cpus, setup);
  const size_t num_apps = apps.size();
  const size_t num_cands = candidates.size();
  std::vector<std::optional<uint64_t>> reference(num_apps * num_cands);
  std::vector<PolicyConfig> best(num_apps);
  double sim_s = 0.0;

  // Two-worker pass: the whole matrix through SweepPolicies, one timed call
  // per app, as the paper benches run it.
  RunOptions par = opts;
  par.jobs = kSweepJobs;
  auto parallel_pass = [&] {
    cpus.Release();
    std::vector<double> app_s;
    for (size_t a = 0; a < num_apps; ++a) {
      const Clock::time_point t0 = Clock::now();
      std::vector<PolicySweepEntry> sweep;
      try {
        sweep = SweepPolicies(apps[a], XenPlusStack(), candidates, par);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "SweepPolicies(%s) threw: %s\n", apps[a].name.c_str(), e.what());
      }
      app_s.push_back(SecondsSince(t0));
      const bool present = sweep.size() == num_cands;
      for (size_t c = 0; c < num_cands; ++c) {
        const size_t cell = a * num_cands + c;
        const JobResult r = present ? sweep[c].result : JobResult{};
        const uint64_t digest = JobDigest(r);
        if (!reference[cell].has_value()) {
          reference[cell] = digest;
          sim_s += r.completion_seconds;
        }
        report.Check(present && JobSane(r), digest, *reference[cell]);
      }
      if (present) {
        best[a] = BestEntry(sweep).policy;
      }
    }
    return app_s;
  };

  // Serial pass: the same matrix cell by cell on this thread, one timed
  // RunSingleApp call per cell, checked against the two-worker sweep.
  auto serial_pass = [&](int k, Observability* obs) {
    RunOptions serial = opts;
    serial.obs = obs;
    std::vector<double> cell_s;
    for (size_t a = 0; a < num_apps; ++a) {
      for (size_t c = 0; c < num_cands; ++c) {
        // The stack SweepPolicies builds for this candidate.
        StackConfig stack = XenPlusStack();
        stack.policy = candidates[c];
        stack.label = stack.label + "/" + ToString(candidates[c]);
        cpus.Pin(a * num_cands + c + k);
        cell_s.push_back(TimedRun(apps[a], stack, serial, &reference[a * num_cands + c], &report));
      }
    }
    return cell_s;
  };

  // Timed: alternate the two passes for the measured period.
  std::vector<std::vector<double>> par_passes;
  std::vector<std::vector<double>> serial_passes;
  const int num_passes = RepeatFor(o, setup_timer, [&](int k) {
    par_passes.push_back(parallel_pass());
    serial_passes.push_back(serial_pass(k, nullptr));
  });
  const std::vector<double> app_s = OpMedians(par_passes);
  const std::vector<double> cell_s = OpMedians(serial_passes);
  const double pass_s = Sum(app_s);

  // An app the paper's table does not name fails the check, so the count
  // cannot silently shrink.
  int table4_match = 0;
  for (size_t a = 0; a < num_apps; ++a) {
    const auto paper = PaperXenBest().find(apps[a].name);
    const bool listed = paper != PaperXenBest().end();
    if (!listed) {
      std::fprintf(stderr, "app %s is not in the paper's Table 4\n", apps[a].name.c_str());
    }
    report.Check(listed, 0, 0);
    if (listed && paper->second == ToString(best[a])) {
      ++table4_match;
    }
  }
  report.end_to_end = {
      {"setup_s", "s", setup_timer.median()},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"pass_s", "s", pass_s},
      {"op_ms_p50", "ms", 1e3 * Median(cell_s)},
      {"op_ms_p90", "ms", 1e3 * Percentile(cell_s, 90.0)},
  };
  report.Info("setup_reps", static_cast<double>(setup_timer.reps()), "set-ups");
  report.Info("passes", static_cast<double>(par_passes.size()), "two-worker + serial sweeps");
  report.Info("cells_per_pass", static_cast<double>(reference.size()), "runs");
  report.Info("sim_s_per_host_s", sim_s / pass_s, "sim-s/host-s");
  report.Info("run_ms_p50", 1e3 * Median(cell_s), "ms");
  report.Info("run_ms_p90", 1e3 * Percentile(cell_s, 90.0), "ms");
  report.Info("serial_pass_s", Sum(cell_s), "s");
  report.Info("table4_match", table4_match, "apps of 29 (simulated, exact)");

  if (o.trace) {
    Observability obs(kTraceCapacity);
    const std::vector<double> traced = serial_pass(num_passes, &obs);
    LayerInputs t;
    t.engine_run_s = Sum(traced);
    t.traced_wall_s = Sum(traced);
    t.untraced_wall_s = Sum(cell_s);  // the traced pass is serial too
    // Cell host time as measured serially, over the two workers' wall.
    t.exec_efficiency = Sum(cell_s) / (kSweepJobs * pass_s);
    t.exec_cell_ms_max = 1e3 * Percentile(cell_s, 100.0);
    t.table4_match = table4_match;
    report.per_layer = PerLayerMetrics(Registry(obs.metrics()), t);
    WriteChromeTrace(obs, o.chrome_trace, &report);
  }
  Digest sim_digest;
  for (const std::optional<uint64_t>& d : reference) {
    sim_digest.Mix(d.value_or(0));
  }
  report.InfoText("sim_digest", Hex(sim_digest.value()));
  return report;
}

// ---------------------------------------------------------------------------
// mosbench_carrefour: Xen+ first-touch + Carrefour on the allocator-churn
// Mosbench apps, nominal length, serial.

Report MosbenchCarrefour(const Options& o) {
  Report report;
  const CpuRotation cpus;
  std::vector<AppProfile> apps;
  StackConfig stack;
  RunOptions opts;
  auto setup = [&](int) {
    apps.clear();
    for (const char* name : {"wc", "wr", "wrmem"}) {
      apps.push_back(*FindApp(name));
      if (o.smoke) {
        apps.back().nominal_seconds = 2.0;
      }
    }
    stack = XenPlusStack({StaticPolicy::kFirstTouch, /*carrefour=*/true});
    opts = BenchOptions();
    // Warm-up: the first app at a tenth of its length.
    opts.seed = kWarmupSeed;
    AppProfile warm = apps[0];
    warm.nominal_seconds *= 0.1;
    (void)RunSingleApp(warm, stack, opts);
    opts.seed = o.seed;
  };
  SetupTimer setup_timer(o, cpus, setup);

  std::vector<std::optional<uint64_t>> reference(apps.size());
  double sim_s = 0.0;
  auto pass = [&](int k, Observability* obs) {
    RunOptions run = opts;
    run.obs = obs;
    std::vector<double> run_s;
    for (size_t a = 0; a < apps.size(); ++a) {
      cpus.Pin(a + k);
      run_s.push_back(TimedRun(apps[a], stack, run, &reference[a], &report, &sim_s));
    }
    return run_s;
  };

  std::vector<std::vector<double>> passes;
  std::vector<double> all_runs;
  const int num_passes = RepeatFor(o, setup_timer, [&](int k) {
    passes.push_back(pass(k, nullptr));
    all_runs.insert(all_runs.end(), passes.back().begin(), passes.back().end());
  });
  const std::vector<double> run_s = OpMedians(passes);
  const double pass_s = Sum(run_s);

  report.end_to_end = {
      {"setup_s", "s", setup_timer.median()},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"pass_s", "s", pass_s},
      {"op_ms_p50", "ms", 1e3 * Median(all_runs)},
      {"op_ms_p90", "ms", 1e3 * Percentile(all_runs, 90.0)},
  };
  report.Info("setup_reps", static_cast<double>(setup_timer.reps()), "set-ups");
  report.Info("passes", static_cast<double>(passes.size()), "passes");
  report.Info("runs", static_cast<double>(all_runs.size()), "runs");
  report.Info("sim_s_per_host_s", sim_s / pass_s, "sim-s/host-s");
  report.Info("run_ms_p50", 1e3 * Median(all_runs), "ms");
  report.Info("run_ms_p90", 1e3 * Percentile(all_runs, 90.0), "ms");

  if (o.trace) {
    Observability obs(kTraceCapacity);
    const std::vector<double> traced = pass(num_passes, &obs);
    LayerInputs t;
    t.engine_run_s = Sum(traced);
    t.traced_wall_s = Sum(traced);
    t.untraced_wall_s = pass_s;
    t.exec_efficiency = 1.0;  // serial: one worker, no fan-out
    t.exec_cell_ms_max = 1e3 * Percentile(run_s, 100.0);
    report.per_layer = PerLayerMetrics(Registry(obs.metrics()), t);
    WriteChromeTrace(obs, o.chrome_trace, &report);
  }
  Digest sim_digest;
  for (const std::optional<uint64_t>& d : reference) {
    sim_digest.Mix(d.value_or(0));
  }
  report.InfoText("sim_digest", Hex(sim_digest.value()));
  return report;
}

// ---------------------------------------------------------------------------
// tenant_churn: AMD48 admission replay, one event per ChurnRunner::Run call.

ChurnSpec TenantChurnSpec(uint64_t seed, int num_events) {
  // The bench/extra_churn soak shape; only the seed and length vary.
  ChurnSpec spec;
  spec.seed = seed;
  spec.num_events = num_events;
  spec.target_live_domains = 40;
  spec.min_pages = 8;
  spec.max_pages = 4096;
  spec.max_vcpus = 12;
  spec.huge_page_fraction = 0.3;
  return spec;
}

// Events per timed segment of a replay (pass_s sums per-segment medians).
constexpr size_t kChurnSegment = 500;

struct ChurnPass {
  std::vector<double> event_us;    // host time of each ChurnRunner::Run call
  std::vector<double> segment_s;   // wall of each kChurnSegment-event stretch
  std::vector<double> end_of_run_us;  // an empty ChurnRunner::Run after each segment
  std::vector<uint64_t> digests;   // per-event report digest
  ChurnReport totals;              // admission counts summed over the events
  int64_t p2m_bytes = 0;           // Σ P2mTable::MemoryBytes() of live domains at the end
};

// Replays `trace` on a fresh AMD48 machine. Each kChurnSegment-event stretch
// runs on the (k + segment)-th CPU of `cpus`.
//
// Every ChurnRunner::Run call ends with work of its own, whatever the
// events: the machine fragmentation and a placement digest that walks every
// live domain. An empty Run call after each segment, outside the segment's
// time, measures that end-of-run cost, which every event time includes.
ChurnPass ReplayChurn(const std::vector<ChurnEvent>& trace, Observability* obs,
                      const CpuRotation& cpus, int k) {
  ChurnPass pass;
  cpus.Pin(k);
  Clock::time_point segment_start = Clock::now();
  const Topology topo = Topology::Amd48();  // the hypervisor keeps a reference
  Hypervisor hv(topo);
  hv.set_observability(obs);  // before any domain exists
  ChurnRunner runner(hv);
  const DomainConfig tmpl;
  std::vector<ChurnEvent> one(1);
  for (size_t i = 0; i < trace.size(); ++i) {
    one[0] = trace[i];
    const double begin_us = obs != nullptr ? obs->tracer().NowUs() : 0.0;
    const Clock::time_point t0 = Clock::now();
    const ChurnReport r = runner.Run(one, tmpl);
    pass.event_us.push_back(1e6 * SecondsSince(t0));
    if (obs != nullptr) {
      obs->tracer().EmitSpan("churn_event", "bench.churn", begin_us, obs->tracer().NowUs());
    }
    pass.digests.push_back(ChurnDigest(r));
    pass.totals.arrivals += r.arrivals;
    pass.totals.admitted += r.admitted;
    pass.totals.deferred += r.deferred;
    pass.totals.rejected += r.rejected;
    if ((i + 1) % kChurnSegment == 0 || i + 1 == trace.size()) {
      pass.segment_s.push_back(SecondsSince(segment_start));
      const Clock::time_point probe = Clock::now();
      (void)runner.Run({}, tmpl);
      pass.end_of_run_us.push_back(1e6 * SecondsSince(probe));
      cpus.Pin(k + pass.segment_s.size());
      segment_start = Clock::now();
    }
  }
  for (DomainId id = 0; id < hv.num_domains(); ++id) {
    if (hv.DomainAlive(id)) {
      pass.p2m_bytes += hv.domain(id).p2m().MemoryBytes();
    }
  }
  return pass;
}

Report TenantChurn(const Options& o) {
  Report report;
  const CpuRotation cpus;
  std::vector<ChurnEvent> trace;
  auto setup = [&](int rep) {
    const int num_events = o.smoke ? 300 : 20000;
    trace = GenerateChurnTrace(TenantChurnSpec(o.seed, num_events));
    // Warm-up: a trace a tenth as long, replayed on a throwaway machine.
    (void)ReplayChurn(GenerateChurnTrace(TenantChurnSpec(kWarmupSeed, num_events / 10)),
                      nullptr, cpus, rep);
  };
  SetupTimer setup_timer(o, cpus, setup);

  std::vector<uint64_t> reference;
  ChurnReport totals;
  auto check = [&](const ChurnPass& pass) {
    if (reference.empty()) {
      reference = pass.digests;
      totals = pass.totals;
    }
    for (size_t i = 0; i < reference.size(); ++i) {
      const bool present = i < pass.digests.size();
      report.Check(present, present ? pass.digests[i] : 0, reference[i]);
    }
  };

  std::vector<std::vector<double>> event_passes;
  std::vector<std::vector<double>> segment_passes;
  std::vector<std::vector<double>> end_of_run_passes;
  const int num_passes = RepeatFor(o, setup_timer, [&](int k) {
    ChurnPass pass = ReplayChurn(trace, nullptr, cpus, k);
    check(pass);
    event_passes.push_back(std::move(pass.event_us));
    segment_passes.push_back(std::move(pass.segment_s));
    end_of_run_passes.push_back(std::move(pass.end_of_run_us));
  });
  const std::vector<double> event_us = OpMedians(event_passes);
  const double pass_s = Sum(OpMedians(segment_passes));
  // Each segment's end-of-run cost stands for its kChurnSegment events.
  const std::vector<double> end_of_run_us = OpMedians(end_of_run_passes);
  const double end_of_run_share =
      1e-6 * Sum(end_of_run_us) * static_cast<double>(kChurnSegment) / pass_s;
  std::map<ChurnEvent::Kind, std::vector<double>> by_kind;
  for (size_t i = 0; i < trace.size(); ++i) {
    ChurnEvent::Kind kind = trace[i].kind;
    if (kind == ChurnEvent::Kind::kBalloonUp) {
      kind = ChurnEvent::Kind::kBalloonDown;  // one balloon bucket
    }
    by_kind[kind].push_back(event_us[i]);
  }
  const std::vector<double>& admit_us = by_kind[ChurnEvent::Kind::kArrive];
  const double deferred_frac =
      totals.arrivals > 0 ? static_cast<double>(totals.deferred) / totals.arrivals : 0.0;

  report.end_to_end = {
      {"setup_s", "s", setup_timer.median()},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"pass_s", "s", pass_s},
      {"op_ms_p50", "ms", 1e-3 * Median(admit_us)},
      {"op_ms_p90", "ms", 1e-3 * Percentile(admit_us, 90.0)},
  };
  report.Info("setup_reps", static_cast<double>(setup_timer.reps()), "set-ups");
  report.Info("passes", static_cast<double>(event_passes.size()), "replays");
  report.Info("events_per_s", static_cast<double>(trace.size()) / pass_s, "1/s");
  report.Info("admit_us_p50", Median(admit_us), "us");
  report.Info("admit_us_p90", Percentile(admit_us, 90.0), "us");
  report.Info("admit_us_p99", Percentile(admit_us, 99.0), "us");
  report.Info("arrivals", static_cast<double>(totals.arrivals), "domains");
  report.Info("admitted", static_cast<double>(totals.admitted), "domains");
  report.Info("rejected", static_cast<double>(totals.rejected), "domains");
  report.Info("deferred_frac", deferred_frac, "ratio (simulated, exact)");
  report.Info("end_of_run_us_p50", Median(end_of_run_us), "us");
  report.Info("end_of_run_share", end_of_run_share, "of pass_s");

  if (o.trace) {
    Observability obs(kTraceCapacity);
    const ChurnPass traced = ReplayChurn(trace, &obs, cpus, num_passes);
    check(traced);
    LayerInputs t;
    t.traced_wall_s = Sum(traced.segment_s);
    t.untraced_wall_s = pass_s;
    t.exec_efficiency = 1.0;  // serial: one worker, no fan-out
    t.exec_cell_ms_max = 1e-3 * Percentile(event_us, 100.0);
    t.p2m_bytes = static_cast<double>(traced.p2m_bytes);
    t.arrive_us = Median(admit_us);
    t.depart_us = Median(by_kind[ChurnEvent::Kind::kDepart]);
    t.balloon_us = Median(by_kind[ChurnEvent::Kind::kBalloonDown]);
    t.migrate_us = Median(by_kind[ChurnEvent::Kind::kMigrate]);
    t.deferred_frac = deferred_frac;
    t.end_of_run_us = Median(end_of_run_us);
    t.end_of_run_share = end_of_run_share;
    report.per_layer = PerLayerMetrics(Registry(obs.metrics()), t);
    WriteChromeTrace(obs, o.chrome_trace, &report);
  }
  Digest sim_digest;
  for (const uint64_t d : reference) {
    sim_digest.Mix(d);
  }
  report.InfoText("sim_digest", Hex(sim_digest.value()));
  return report;
}

// ---------------------------------------------------------------------------

// Debug and sanitizer builds time something other than what users run, so
// they must never produce a number that could become a baseline.
const char* UnfitBuildReason() {
#if !defined(__OPTIMIZE__)
  return "unoptimized build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  if (XNUMA_PERFBENCH_SANITIZED != 0) {
    return "sanitizer build";
  }
  if (std::strcmp(XNUMA_PERFBENCH_BUILD_TYPE, "Debug") == 0) {
    return "Debug build";
  }
  return nullptr;
#endif
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
    }
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  Options o;
  o.workload = flags.GetString("workload");
  o.seconds = flags.GetDouble("seconds", 10.0);
  o.trace = flags.GetInt("trace", 0) != 0;
  o.smoke = flags.GetBool("smoke");
  o.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  o.chrome_trace = flags.GetString("chrome_trace");
  const std::string commit = flags.GetString("commit", "unknown");
  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "xnuma_perfbench: unknown flag --%s\n", key.c_str());
    return 2;
  }
  if (const char* reason = UnfitBuildReason()) {
    std::fprintf(stderr, "xnuma_perfbench: refusing to report (%s)\n", reason);
    return 3;
  }

  const std::map<std::string, std::function<Report(const Options&)>> workloads = {
      {"paper_sweep", PaperSweep},
      {"mosbench_carrefour", MosbenchCarrefour},
      {"tenant_churn", TenantChurn},
  };
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "xnuma_perfbench: unknown --workload '%s'\n", o.workload.c_str());
    return 2;
  }

#if defined(__clang__)
  const char* const compiler = "clang " __clang_version__;
#else
  const char* const compiler = "gcc " __VERSION__;
#endif
  std::printf("host nproc=%u build_type=%s compiler=\"%s\" commit=%s\n",
              std::thread::hardware_concurrency(), XNUMA_PERFBENCH_BUILD_TYPE, compiler,
              commit.c_str());
  std::printf("workload %s seed=%llu seconds=%g trace=%d smoke=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
              o.smoke ? 1 : 0);
  const Report report = it->second(o);

  for (const Metric& m : report.end_to_end) {
    std::printf("metric %s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : report.per_layer) {
    std::printf("layer %s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& line : report.info) {
    std::printf("info %s\n", line.c_str());
  }
  std::printf("info failed_frac %.10g ratio\n",
              static_cast<double>(report.failed) / static_cast<double>(report.attempted));

  const std::vector<Metric>& metrics = o.trace ? report.per_layer : report.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              report.failed == 0 ? "true" : "false", static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf(i == 0 ? "" : ", ");
    PrintJsonString(metrics[i].name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metrics[i].value);
    PrintJsonString(metrics[i].unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
