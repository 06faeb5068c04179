#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "src/carrefour/system_component.h"
#include "src/core/experiment.h"
#include "src/numa/topology.h"

namespace xnuma {
namespace {

// A small, fast, strongly master-slave app: 80% of accesses hit a
// master-initialized shared region.
AppProfile MasterSlaveApp(double shared_affinity = 0.0) {
  AppProfile app;
  app.name = "synthetic-ms";
  app.cpu_cycles_per_access = 150;
  app.nominal_seconds = 1.0;
  RegionSpec shared;
  shared.name = "shared";
  shared.footprint_mb = 512;
  shared.init = AllocPattern::kMasterInit;
  shared.access_share = 0.8;
  shared.owner_affinity = shared_affinity;
  app.regions.push_back(shared);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 256;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.2;
  priv.owner_affinity = 0.95;
  app.regions.push_back(priv);
  return app;
}

AppProfile ThreadLocalApp() {
  AppProfile app = MasterSlaveApp();
  app.name = "synthetic-local";
  app.regions[0].access_share = 0.05;
  app.regions[1].access_share = 0.95;
  return app;
}

struct TestMachine {
  Topology topo = Topology::Amd48();
  Hypervisor hv{topo};
  LatencyModel latency;
  std::unique_ptr<Engine> engine;
  std::vector<std::unique_ptr<GuestOs>> guests;

  explicit TestMachine(uint64_t seed = 7) {
    EngineConfig ec;
    ec.seed = seed;
    engine = std::make_unique<Engine>(hv, latency, ec);
  }

  JobResult RunApp(const AppProfile& app, PolicyConfig policy, int threads = 48,
                   ExecMode mode = ExecMode::kGuest) {
    DomainConfig dc;
    dc.name = app.name;
    dc.num_vcpus = threads;
    dc.memory_pages = SimPagesForApp(app, hv.frames().bytes_per_frame(), 96) + 64;
    for (int i = 0; i < threads; ++i) {
      dc.pinned_cpus.push_back(i);
    }
    dc.policy = policy;
    const DomainId dom = hv.CreateDomain(dc);
    GuestOs::Options go;
    go.mode = mode == ExecMode::kGuest ? KernelMode::kParavirt : KernelMode::kNativeKernel;
    guests.push_back(std::make_unique<GuestOs>(hv, dom, go));
    JobSpec spec;
    spec.app = &app;
    spec.domain = dom;
    spec.guest = guests.back().get();
    spec.threads = threads;
    spec.exec_mode = mode;
    spec.io_path = mode == ExecMode::kNative ? IoPath::kNative : IoPath::kPciPassthrough;
    spec.sync = SyncPrimitive::kBlockingFutex;
    engine->AddJob(spec);
    RunResult r = engine->Run();
    return r.jobs.back();
  }
};

TEST(EngineTest, JobsFinish) {
  TestMachine m;
  const AppProfile app = ThreadLocalApp();
  const JobResult r = m.RunApp(app, {StaticPolicy::kFirstTouch, false});
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.completion_seconds, 0.1);
  EXPECT_LT(r.completion_seconds, 60.0);
}

TEST(EngineTest, FirstTouchImbalanceMatchesMasterShare) {
  TestMachine m;
  const AppProfile app = MasterSlaveApp();
  const JobResult r = m.RunApp(app, {StaticPolicy::kFirstTouch, false});
  // 80% of accesses on one node -> imbalance ~ 264.6% * 0.8 ~ 212%.
  EXPECT_GT(r.imbalance_pct, 150.0);
  EXPECT_LT(r.imbalance_pct, 260.0);
}

TEST(EngineTest, Round4kBalancesAccesses) {
  TestMachine m;
  const AppProfile app = MasterSlaveApp();
  const JobResult r = m.RunApp(app, {StaticPolicy::kRound4k, false});
  EXPECT_LT(r.imbalance_pct, 60.0);
}

TEST(EngineTest, Round4kBeatsFirstTouchForMasterSlave) {
  const AppProfile app = MasterSlaveApp();
  TestMachine m1;
  const JobResult ft = m1.RunApp(app, {StaticPolicy::kFirstTouch, false});
  TestMachine m2;
  const JobResult r4k = m2.RunApp(app, {StaticPolicy::kRound4k, false});
  EXPECT_LT(r4k.completion_seconds, 0.8 * ft.completion_seconds);
}

TEST(EngineTest, FirstTouchBeatsRound4kForThreadLocal) {
  const AppProfile app = ThreadLocalApp();
  TestMachine m1;
  const JobResult ft = m1.RunApp(app, {StaticPolicy::kFirstTouch, false});
  TestMachine m2;
  const JobResult r4k = m2.RunApp(app, {StaticPolicy::kRound4k, false});
  EXPECT_LT(ft.completion_seconds, r4k.completion_seconds);
}

TEST(EngineTest, Round4kRaisesInterconnectLoadForThreadLocal) {
  const AppProfile app = ThreadLocalApp();
  TestMachine m1;
  const JobResult ft = m1.RunApp(app, {StaticPolicy::kFirstTouch, false});
  TestMachine m2;
  const JobResult r4k = m2.RunApp(app, {StaticPolicy::kRound4k, false});
  EXPECT_GT(r4k.interconnect_pct, 1.5 * ft.interconnect_pct);
}

TEST(EngineTest, CarrefourRescuesFirstTouchOnPartitionedSharedRegion) {
  // Shared region with a dominant accessor per page: the migration
  // heuristic should recover most of the first-touch penalty.
  const AppProfile app = MasterSlaveApp(/*shared_affinity=*/0.9);
  TestMachine m1;
  const JobResult ft = m1.RunApp(app, {StaticPolicy::kFirstTouch, false});
  TestMachine m2;
  const JobResult ftc = m2.RunApp(app, {StaticPolicy::kFirstTouch, true});
  EXPECT_LT(ftc.completion_seconds, ft.completion_seconds);
  EXPECT_GT(ftc.carrefour_migrations, 0);
}

TEST(EngineTest, FirstTouchTakesHvFaults) {
  TestMachine m;
  const AppProfile app = ThreadLocalApp();
  const JobResult r = m.RunApp(app, {StaticPolicy::kFirstTouch, false});
  EXPECT_GT(r.hv_page_faults, 0);
}

TEST(EngineTest, EagerPolicyTakesNoHvFaults) {
  TestMachine m;
  const AppProfile app = ThreadLocalApp();
  const JobResult r = m.RunApp(app, {StaticPolicy::kRound4k, false});
  EXPECT_EQ(r.hv_page_faults, 0);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  const AppProfile app = MasterSlaveApp();
  TestMachine m1(123);
  TestMachine m2(123);
  const JobResult a = m1.RunApp(app, {StaticPolicy::kRound4k, true});
  const JobResult b = m2.RunApp(app, {StaticPolicy::kRound4k, true});
  EXPECT_DOUBLE_EQ(a.completion_seconds, b.completion_seconds);
  EXPECT_EQ(a.carrefour_migrations, b.carrefour_migrations);
}

TEST(EngineTest, SamplerReturnsHottestFirst) {
  TestMachine m;
  // Keep the job unfinished: the sampler attributes rates of running jobs.
  m.engine = nullptr;
  EngineConfig ec;
  ec.seed = 7;
  ec.max_sim_seconds = 0.3;
  m.engine = std::make_unique<Engine>(m.hv, m.latency, ec);
  AppProfile app = ThreadLocalApp();
  app.nominal_seconds = 30.0;
  DomainConfig dc;
  dc.num_vcpus = 8;
  dc.memory_pages = SimPagesForApp(app, m.hv.frames().bytes_per_frame(), 96) + 64;
  for (int i = 0; i < 8; ++i) {
    dc.pinned_cpus.push_back(i * 6);
  }
  dc.policy = {StaticPolicy::kRound4k, false};
  const DomainId dom = m.hv.CreateDomain(dc);
  m.guests.push_back(std::make_unique<GuestOs>(m.hv, dom));
  JobSpec spec;
  spec.app = &app;
  spec.domain = dom;
  spec.guest = m.guests.back().get();
  spec.threads = 8;
  m.engine->AddJob(spec);
  m.engine->Run();

  std::vector<PageAccessSample> samples;
  m.engine->SampleHotPages(dom, 16, &samples);
  ASSERT_GT(samples.size(), 1u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i - 1].TotalRate(), samples[i].TotalRate());
  }
}

// FNV-1a over every field Carrefour consumes from a hot-page scan, in scan
// order: pfn, current node, written flag and the bit pattern of each rate.
void DigestHotPages(const std::vector<PageAccessSample>& hot, uint64_t* h) {
  auto mix = [h](const void* data, size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      *h = (*h ^ bytes[i]) * 0x100000001b3ull;
    }
  };
  const uint64_t count = hot.size();
  mix(&count, sizeof(count));
  for (const PageAccessSample& s : hot) {
    mix(&s.pfn, sizeof(s.pfn));
    mix(&s.current_node, sizeof(s.current_node));
    const uint8_t written = s.written ? 1 : 0;
    mix(&written, sizeof(written));
    for (double r : s.rate_by_node) {
      uint64_t bits = 0;
      std::memcpy(&bits, &r, sizeof(bits));
      mix(&bits, sizeof(bits));
    }
  }
}

std::string Hex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// Runs `app` on all 48 CPUs for 0.3 simulated seconds (the job stays
// unfinished, so the sampler still sees it), then digests `scans`
// consecutive Carrefour hot-page reads of 192 pages. Consecutive reads pin
// the sampling-noise stream across scan boundaries too.
struct HotPageScan {
  std::string digest;
  size_t pages = 0;                // pages returned by the last read
  int64_t pages_replicated = 0;    // domain pages replicated during the run
  bool replicated_sampled = false; // some returned pfn is a replicated page
};

HotPageScan ScanHotPages(const AppProfile& app, PolicyConfig policy, bool replication,
                         int scans) {
  TestMachine m;
  EngineConfig ec;
  ec.seed = 7;
  ec.max_sim_seconds = 0.3;
  ec.carrefour.enable_replication = replication;
  m.engine = std::make_unique<Engine>(m.hv, m.latency, ec);
  const DomainId dom = m.RunApp(app, policy).domain;

  CarrefourSystemComponent system(m.hv, m.engine->counters(), *m.engine);
  HotPageScan out;
  uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < scans; ++i) {
    const std::vector<PageAccessSample> hot = system.ReadHotPages(dom, 192);
    DigestHotPages(hot, &h);
    out.pages = hot.size();
    for (const PageAccessSample& s : hot) {
      out.replicated_sampled |= m.hv.domain(dom).IsReplicated(s.pfn);
    }
  }
  out.digest = Hex(h);
  out.pages_replicated = m.hv.domain(dom).stats().pages_replicated;
  return out;
}

// Golden digests of the IBS emulation: the scan must keep returning the
// same pages, in the same order, with bitwise-equal rates. An intentional
// change to the sampling model (docs/MODEL.md §6) regenerates them.
TEST(EngineTest, HotPageScanGoldenFirstTouchCarrefour) {
  AppProfile app = MasterSlaveApp(/*shared_affinity=*/0.9);
  app.nominal_seconds = 30.0;
  app.regions[0].footprint_mb = 2048;
  app.regions[1].footprint_mb = 1024;
  const HotPageScan scan = ScanHotPages(app, {StaticPolicy::kFirstTouch, true},
                                        /*replication=*/false, /*scans=*/4);
  EXPECT_EQ(scan.pages, 192u);
  EXPECT_EQ(scan.digest, "66bce26983b7bf11");
}

TEST(EngineTest, HotPageScanGoldenRound4kReplicationSkipsReplicas) {
  AppProfile app;
  app.name = "readonly-shared";
  app.cpu_cycles_per_access = 150;
  app.mlp = 3;
  app.nominal_seconds = 30.0;
  RegionSpec table;
  table.name = "hot-table";
  table.footprint_mb = 2048;
  table.init = AllocPattern::kMasterInit;
  table.access_share = 0.85;
  table.write_fraction = 0.0;  // read-only: a replication candidate
  app.regions.push_back(table);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 1024;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.15;
  priv.owner_affinity = 0.95;
  app.regions.push_back(priv);
  const HotPageScan scan = ScanHotPages(app, {StaticPolicy::kRound4k, true},
                                        /*replication=*/true, /*scans=*/4);
  // Not vacuous: Carrefour replicated pages during the run, and the scan
  // left every one of them out.
  EXPECT_GT(scan.pages_replicated, 0);
  EXPECT_FALSE(scan.replicated_sampled);
  EXPECT_EQ(scan.pages, 192u);
  EXPECT_EQ(scan.digest, "6307804d1aa31991");
}

// The noise-stream contract (docs/MODEL.md §6), checked without assuming
// which Gaussian sampler Rng uses. A machine is paused 0.3 simulated
// seconds into a Round-4K run without Carrefour: nothing scans or migrates
// during the run, so `sampling_noise` changes only the scans made after it,
// and two machines with the same seed hold the same placement and candidate
// sequence. Each scan asks for more pages than there are candidates, so it
// returns every one of them.
constexpr int kEveryPage = 1 << 30;

struct PausedMachine {
  TestMachine m;
  DomainId dom = kInvalidDomain;
};

std::unique_ptr<PausedMachine> PauseRound4k(const AppProfile& app, double noise) {
  auto p = std::make_unique<PausedMachine>();
  EngineConfig ec;
  ec.seed = 7;
  ec.max_sim_seconds = 0.3;
  ec.sampling_noise = noise;
  p->m.engine = std::make_unique<Engine>(p->m.hv, p->m.latency, ec);
  p->dom = p->m.RunApp(app, {StaticPolicy::kRound4k, false}).domain;
  return p;
}

AppProfile ScanContractApp() {
  AppProfile app = MasterSlaveApp(/*shared_affinity=*/0.9);
  app.nominal_seconds = 30.0;
  return app;
}

std::map<Pfn, std::vector<double>> ExactRates(PausedMachine& exact) {
  std::vector<PageAccessSample> all;
  exact.m.engine->SampleHotPages(exact.dom, kEveryPage, &all);
  std::map<Pfn, std::vector<double>> rates;
  for (const PageAccessSample& s : all) {
    rates[s.pfn] = s.rate_by_node;
  }
  return rates;
}

// Replays one scan's draws from `replay`, an Rng in the engine's stream
// position: one NextGaussian per (candidate, node), candidate-major and
// node-minor. Matches every returned page to the candidate whose draws
// reproduce its noisy rates bit for bit, and returns pfn -> candidate index.
std::map<Pfn, size_t> MatchScanToReplay(const std::vector<PageAccessSample>& scan,
                                        const std::map<Pfn, std::vector<double>>& exact,
                                        double sigma, Rng* replay) {
  const size_t count = scan.size();
  const size_t nodes = scan.front().rate_by_node.size();
  std::vector<double> draws(count * nodes);
  for (double& g : draws) {
    g = replay->NextGaussian();
  }
  // Per node, the candidates sorted by their draw, to look a page up by the
  // draw its noisy rate implies.
  std::vector<std::vector<std::pair<double, size_t>>> by_draw(nodes);
  for (size_t n = 0; n < nodes; ++n) {
    for (size_t c = 0; c < count; ++c) {
      by_draw[n].emplace_back(draws[c * nodes + n], c);
    }
    std::sort(by_draw[n].begin(), by_draw[n].end());
  }
  std::map<Pfn, size_t> candidate;
  std::vector<bool> used(count, false);
  for (const PageAccessSample& s : scan) {
    const std::vector<double>& e = exact.at(s.pfn);
    size_t n = 0;
    while (n < nodes && s.rate_by_node[n] <= 0.0) {
      ++n;
    }
    EXPECT_LT(n, nodes) << "pfn " << s.pfn << " has no positive noisy rate";
    if (n == nodes) {
      continue;
    }
    const double implied = (s.rate_by_node[n] / e[n] - 1.0) / sigma;
    const auto& col = by_draw[n];
    auto it = std::lower_bound(col.begin(), col.end(), std::make_pair(implied, size_t{0}));
    if (it == col.end() || (it != col.begin() && implied - (it - 1)->first < it->first - implied)) {
      --it;
    }
    const size_t c = it->second;
    for (size_t k = 0; k < nodes; ++k) {
      const double want = std::max(0.0, e[k] * (1.0 + sigma * draws[c * nodes + k]));
      EXPECT_EQ(std::memcmp(&want, &s.rate_by_node[k], sizeof(double)), 0)
          << "pfn " << s.pfn << " node " << k;
    }
    EXPECT_FALSE(used[c]) << "candidate " << c << " matched twice";
    used[c] = true;
    candidate[s.pfn] = c;
  }
  return candidate;
}

// Multiplicative noise: per (page, node), noisy / exact has mean 1 and
// standard deviation sigma over repeated scans of one placement.
TEST(EngineTest, HotPageScanNoiseHasUnitMeanAndSigmaSpread) {
  const AppProfile app = ScanContractApp();
  auto exact_machine = PauseRound4k(app, 0.0);
  auto noisy = PauseRound4k(app, 0.25);
  const std::map<Pfn, std::vector<double>> exact = ExactRates(*exact_machine);
  ASSERT_GT(exact.size(), 100u);
  double sum = 0.0;
  double sum2 = 0.0;
  int64_t n = 0;
  for (int scan = 0; scan < 64; ++scan) {
    std::vector<PageAccessSample> all;
    noisy->m.engine->SampleHotPages(noisy->dom, kEveryPage, &all);
    ASSERT_EQ(all.size(), exact.size());
    for (const PageAccessSample& s : all) {
      const std::vector<double>& e = exact.at(s.pfn);
      for (size_t k = 0; k < e.size(); ++k) {
        if (e[k] > 0.0) {
          const double ratio = s.rate_by_node[k] / e[k];
          sum += ratio;
          sum2 += ratio * ratio;
          ++n;
        }
      }
    }
  }
  ASSERT_GT(n, 100000);
  const double mean = sum / n;
  const double sd = std::sqrt(sum2 / n - mean * mean);
  // Clamping at 0 touches 1 + 0.25 g < 0, i.e. g < -4 (3e-5 of draws);
  // the bounds are over 10 standard errors wide at n > 10^5.
  EXPECT_NEAR(mean, 1.0, 0.01);
  EXPECT_NEAR(sd, 0.25, 0.01);
}

// Two consecutive scans consume the engine's stream exactly as a replay
// does: the engine forks one Rng per job from its seed, then every scan
// draws one Gaussian per (candidate, node), kept or not, and no other.
TEST(EngineTest, HotPageScanConsumesOneDrawPerPageNodeInCandidateOrder) {
  const AppProfile app = ScanContractApp();
  auto exact_machine = PauseRound4k(app, 0.0);
  auto noisy = PauseRound4k(app, 0.25);
  const std::map<Pfn, std::vector<double>> exact = ExactRates(*exact_machine);
  Rng replay(7);
  replay.Fork();  // AddJob's fork of the job's own stream
  std::map<Pfn, size_t> first;
  for (int scan = 0; scan < 2; ++scan) {
    SCOPED_TRACE(::testing::Message() << "scan " << scan);
    std::vector<PageAccessSample> all;
    noisy->m.engine->SampleHotPages(noisy->dom, kEveryPage, &all);
    ASSERT_EQ(all.size(), exact.size());
    const std::map<Pfn, size_t> candidate = MatchScanToReplay(all, exact, 0.25, &replay);
    EXPECT_EQ(candidate.size(), all.size());
    if (scan == 0) {
      first = candidate;
    } else {
      EXPECT_EQ(candidate, first);  // the same candidate sequence both times
    }
  }
}

// Pages with equal totals come back in candidate order, and a smaller
// `max_pages` keeps a prefix of a larger one even when it cuts a tie.
TEST(EngineTest, HotPageScanOrdersTiesByCandidateIndex) {
  const AppProfile app = ScanContractApp();
  auto exact_machine = PauseRound4k(app, 0.0);
  auto noisy = PauseRound4k(app, 0.25);
  const std::map<Pfn, std::vector<double>> exact = ExactRates(*exact_machine);
  std::vector<PageAccessSample> noisy_all;
  noisy->m.engine->SampleHotPages(noisy->dom, kEveryPage, &noisy_all);
  Rng replay(7);
  replay.Fork();
  const std::map<Pfn, size_t> candidate = MatchScanToReplay(noisy_all, exact, 0.25, &replay);
  ASSERT_EQ(candidate.size(), exact.size());

  // Without noise whole groups of pages share a total.
  std::vector<PageAccessSample> all;
  exact_machine->m.engine->SampleHotPages(exact_machine->dom, kEveryPage, &all);
  int ties = 0;
  size_t cut = 0;
  for (size_t i = 1; i < all.size(); ++i) {
    ASSERT_GE(all[i - 1].TotalRate(), all[i].TotalRate());
    if (all[i - 1].TotalRate() == all[i].TotalRate()) {
      ++ties;
      EXPECT_LT(candidate.at(all[i - 1].pfn), candidate.at(all[i].pfn)) << "rank " << i;
      if (cut == 0) {
        cut = i;  // a max_pages that splits this tie group
      }
    }
  }
  ASSERT_GT(ties, 100);
  std::vector<PageAccessSample> prefix;
  exact_machine->m.engine->SampleHotPages(exact_machine->dom, static_cast<int>(cut), &prefix);
  ASSERT_EQ(prefix.size(), cut);
  for (size_t i = 0; i < cut; ++i) {
    EXPECT_EQ(prefix[i].pfn, all[i].pfn) << "rank " << i;
  }
}

TEST(EngineTest, ReleaseChurnExercisesPvQueue) {
  TestMachine m;
  AppProfile app = ThreadLocalApp();
  app.release_rate_per_s = 50000;
  app.nominal_seconds = 0.5;
  m.RunApp(app, {StaticPolicy::kFirstTouch, false});
  const auto stats = m.guests.back()->pv_queue().GetStats();
  EXPECT_GT(stats.flushes, 0);
  EXPECT_GT(stats.hypervisor_seconds, 0.0);
}

TEST(EngineTest, ChurnOverheadSlowsJobDown) {
  AppProfile base = ThreadLocalApp();
  base.nominal_seconds = 0.5;
  AppProfile churny = base;
  churny.release_rate_per_s = 66700;
  TestMachine m1;
  const JobResult calm = m1.RunApp(base, {StaticPolicy::kFirstTouch, false});
  TestMachine m2;
  const JobResult noisy = m2.RunApp(churny, {StaticPolicy::kFirstTouch, false});
  EXPECT_GT(noisy.completion_seconds, calm.completion_seconds);
}

}  // namespace
}  // namespace xnuma
