// Multi-tenant admission soak on the paper's AMD48 machine (docs/MODEL.md
// §17): a long seeded churn trace — heavy-tailed arrivals, departures,
// balloon cycles, migration bursts — replayed through the admission
// solver, reporting solver latency percentiles, admission outcomes and
// final fragmentation as JSON for tools/run_bench.sh, which splices the
// object into BENCH_engine.json and ratchets `churn_solver_p99_us`
// against tools/bench_ratchet.json (a latency ceiling: it only moves
// down). The process's peak resident set, `peak_rss_mb`, is gated there
// too (`churn_peak_rss_mb`): destroyed tenants must give their storage
// back, so the footprint follows the live tenants, not every tenant ever
// created. `heap_in_use_mb` is the allocator's in-use heap with the churned
// machine still alive, and `end_of_run_us` the median cost of an empty
// ChurnRunner::Run on it: the fragmentation gauge and placement digest
// every Run call ends with. Everything but the latencies, the RSS and the
// heap is deterministic: the placement digest printed here must be stable
// across runs and machines.

#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/admission/churn_runner.h"
#include "src/hv/hypervisor.h"
#include "src/numa/topology.h"
#include "src/workload/churn.h"

namespace {

using namespace xnuma;

// Peak resident set of this process (VmHWM of /proc/self/status), in MiB;
// 0 where procfs is unavailable.
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

// Heap bytes the allocator has handed out and not had back, in MiB; 0
// where glibc's mallinfo2 (2.33 and later) is unavailable.
double HeapInUseMb() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
#else
  return 0.0;
#endif
}

// Median host time of `reps` empty Run calls, in microseconds.
double EndOfRunUs(ChurnRunner& runner, int reps) {
  std::vector<double> us;
  us.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)runner.Run({}, DomainConfig{});
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::nth_element(us.begin(), us.begin() + reps / 2, us.end());
  return us[reps / 2];
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv);

  ChurnSpec spec;
  spec.seed = 4817;
  spec.num_events = 20000;
  spec.target_live_domains = 40;
  spec.min_pages = 8;
  spec.max_pages = 4096;  // up to 16 GiB at the 4 MiB frame scale
  spec.max_vcpus = 12;
  spec.huge_page_fraction = 0.3;

  const Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  ChurnRunner runner(hv);
  const auto t0 = std::chrono::steady_clock::now();
  const ChurnReport r = runner.Run(GenerateChurnTrace(spec), DomainConfig{});
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const double end_of_run_us = EndOfRunUs(runner, 1001);
  const double heap_mb = HeapInUseMb();
  const int tombstones = hv.num_domains() - hv.num_live_domains();

  std::printf("{\n");
  std::printf("  \"bench\": \"extra_churn\",\n");
  std::printf("  \"machine\": \"amd48\",\n");
  std::printf("  \"seed\": %llu,\n",
              static_cast<unsigned long long>(spec.seed));
  std::printf("  \"events\": %lld,\n", static_cast<long long>(r.events));
  std::printf("  \"arrivals\": %lld,\n", static_cast<long long>(r.arrivals));
  std::printf("  \"admitted\": %lld,\n", static_cast<long long>(r.admitted));
  std::printf("  \"deferred\": %lld,\n", static_cast<long long>(r.deferred));
  std::printf("  \"rejected\": %lld,\n", static_cast<long long>(r.rejected));
  std::printf("  \"departures\": %lld,\n", static_cast<long long>(r.departures));
  std::printf("  \"final_live_domains\": %lld,\n",
              static_cast<long long>(r.final_live_domains));
  std::printf("  \"final_fragmentation\": %.4f,\n", r.final_fragmentation);
  std::printf("  \"placement_digest\": \"%016llx\",\n",
              static_cast<unsigned long long>(r.placement_digest));
  std::printf("  \"churn_solver_p50_us\": %.3f,\n", r.solve_p50_us);
  std::printf("  \"churn_solver_p99_us\": %.3f,\n", r.solve_p99_us);
  std::printf("  \"churn_solver_max_us\": %.3f,\n", r.solve_max_us);
  std::printf("  \"end_of_run_us\": %.3f,\n", end_of_run_us);
  std::printf("  \"tombstones\": %d,\n", tombstones);
  std::printf("  \"heap_in_use_mb\": %.2f,\n", heap_mb);
  std::printf("  \"peak_rss_mb\": %.1f,\n", PeakRssMb());
  std::printf("  \"wall_s\": %.3f\n", wall_s);
  std::printf("}\n");
  return 0;
}
