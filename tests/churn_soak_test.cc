// Churn soak (docs/MODEL.md §17): a 10k-event seeded
// arrival/departure/balloon/migration trace replayed through the
// admission solver must be exactly deterministic (same seed, same final
// placement digest and metrics), leak no machine frames, and leave the
// allocator's cached counters coherent with its bitmap. Fragmentation
// accounting is pinned against a hand-computed fixture.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/admission/available_space.h"
#include "src/admission/churn_runner.h"
#include "src/common/rng.h"
#include "src/hv/hypervisor.h"
#include "src/hv/p2m.h"
#include "src/hv/promotion.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"
#include "src/workload/churn.h"

namespace xnuma {
namespace {

ChurnSpec SoakSpec() {
  ChurnSpec spec;
  spec.seed = 42;
  spec.num_events = 10000;
  spec.target_live_domains = 10;
  spec.min_pages = 4;
  spec.max_pages = 96;
  spec.max_vcpus = 3;
  spec.max_balloon_pages = 32;
  spec.max_migrate_pages = 16;
  return spec;
}

// A fresh, never-mapped table: the table object plus its chunk-pointer array.
int64_t FreshFootprint(int64_t num_pages) {
  const P2mTable fresh(num_pages);
  return fresh.MemoryBytes();
}

// What a tombstone may keep (docs/MODEL.md §17, invariant 6): a few hundred
// bytes, whatever the size of the domain it replaced.
constexpr int64_t kTombstoneBytes = 300;

// A tombstone has no domain object left behind: every accessor that would
// reach one fails its check, and the vNUMA query refuses the id.
void ExpectNoDomainObject(Hypervisor& hv, DomainId id) {
  EXPECT_FALSE(hv.DomainAlive(id)) << "domain " << id;
  EXPECT_DEATH((void)hv.domain(id), "DomainAlive") << "domain " << id;
  EXPECT_DEATH((void)hv.backend(id), "DomainAlive") << "domain " << id;
  VnumaInfo info;
  EXPECT_EQ(hv.HypercallGetVnumaInfo(id, &info), HypercallStatus::kBadDomain);
}

// Machine frames and pCPU reservations are held by live domains only: the
// frames their P2M tables map (none of these machines replicates pages)
// plus the free frames make up the whole allocatable machine, and the
// vCPUs pinned across all pCPUs are exactly the live domains' vCPUs.
void ExpectOnlyLiveDomainsHoldResources(Hypervisor& hv, int64_t baseline_free) {
  int64_t mapped = 0;
  int64_t vcpus = 0;
  for (DomainId id = 0; id < hv.num_domains(); ++id) {
    if (hv.DomainAlive(id)) {
      mapped += hv.domain(id).p2m().valid_count();
      vcpus += static_cast<int64_t>(hv.domain(id).vcpus().size());
    }
  }
  EXPECT_EQ(hv.frames().TotalFreeFrames() + mapped, baseline_free);
  int64_t pinned = 0;
  for (CpuId c = 0; c < hv.topology().num_cpus(); ++c) {
    pinned += hv.VcpusOnCpu(c);
  }
  EXPECT_EQ(pinned, vcpus);
}

// FNV-1a over one domain's page->node runs.
uint64_t PlacementDigest(Hypervisor& hv, DomainId id) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](int64_t v) {
    h ^= static_cast<uint64_t>(v);
    h *= 1099511628211ull;
  };
  for (Pfn p = 0; p < hv.domain(id).memory_pages();) {
    const HvPlacementBackend::PlacementRun run = hv.backend(id).NodeOfRange(p);
    mix(run.first);
    mix(run.count);
    mix(run.node);
    p = run.first + run.count;
  }
  return h;
}

Topology SoakTopo() {
  // 4 nodes x 4 CPUs, 64 frames/node at the 4 MiB scale: small enough that
  // 10k events finish in seconds, full enough that admission really says
  // no sometimes.
  return Topology::Synthetic(4, 4, 256ll << 20);
}

TEST(ChurnSoakTest, TraceGenerationIsDeterministic) {
  const std::vector<ChurnEvent> a = GenerateChurnTrace(SoakSpec());
  const std::vector<ChurnEvent> b = GenerateChurnTrace(SoakSpec());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 10000u);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].kind, b[i].kind) << "event " << i;
    ASSERT_EQ(a[i].slot, b[i].slot) << "event " << i;
    ASSERT_EQ(a[i].num_vcpus, b[i].num_vcpus) << "event " << i;
    ASSERT_EQ(a[i].pages, b[i].pages) << "event " << i;
    ASSERT_EQ(a[i].preferred_order, b[i].preferred_order) << "event " << i;
  }
  // The mix exercises every event kind.
  int64_t arrivals = 0, departs = 0, balloons = 0, migrates = 0;
  for (const ChurnEvent& ev : a) {
    switch (ev.kind) {
      case ChurnEvent::Kind::kArrive:
        ++arrivals;
        break;
      case ChurnEvent::Kind::kDepart:
        ++departs;
        break;
      case ChurnEvent::Kind::kBalloonDown:
      case ChurnEvent::Kind::kBalloonUp:
        ++balloons;
        break;
      case ChurnEvent::Kind::kMigrate:
        ++migrates;
        break;
    }
  }
  EXPECT_GT(arrivals, 0);
  EXPECT_GT(departs, 0);
  EXPECT_GT(balloons, 0);
  EXPECT_GT(migrates, 0);
}

TEST(ChurnSoakTest, TenThousandEventsReplayDeterministically) {
  const std::vector<ChurnEvent> trace = GenerateChurnTrace(SoakSpec());
  const DomainConfig tmpl;  // round-4K eager placement, no pinning

  ChurnReport reports[2];
  for (ChurnReport& report : reports) {
    const Topology topo = SoakTopo();
    Hypervisor hv(topo);
    ChurnRunner runner(hv);
    report = runner.Run(trace, tmpl);
  }

  // Same seed => same admission outcomes, same final placement, same
  // fragmentation — bit-for-bit.
  EXPECT_EQ(reports[0].placement_digest, reports[1].placement_digest);
  EXPECT_EQ(reports[0].admitted, reports[1].admitted);
  EXPECT_EQ(reports[0].deferred, reports[1].deferred);
  EXPECT_EQ(reports[0].rejected, reports[1].rejected);
  EXPECT_EQ(reports[0].departures, reports[1].departures);
  EXPECT_EQ(reports[0].balloon_down_pages, reports[1].balloon_down_pages);
  EXPECT_EQ(reports[0].balloon_up_pages, reports[1].balloon_up_pages);
  EXPECT_EQ(reports[0].migrated_pages, reports[1].migrated_pages);
  EXPECT_EQ(reports[0].final_live_domains, reports[1].final_live_domains);
  EXPECT_DOUBLE_EQ(reports[0].final_fragmentation, reports[1].final_fragmentation);

  // The trace actually exercised the machine.
  EXPECT_EQ(reports[0].events, 10000);
  EXPECT_GT(reports[0].admitted, 0);
  EXPECT_GT(reports[0].departures, 0);
  EXPECT_EQ(reports[0].arrivals,
            reports[0].admitted + reports[0].deferred + reports[0].rejected);
  // Latency percentiles are sane: ordered, and p99 bounded (1 ms is two
  // orders of magnitude above what the solver needs on this machine size).
  EXPECT_LE(reports[0].solve_p50_us, reports[0].solve_p99_us);
  EXPECT_LE(reports[0].solve_p99_us, reports[0].solve_max_us);
  EXPECT_LT(reports[0].solve_p99_us, 1000.0);
}

TEST(ChurnSoakTest, SoakLeaksNoFramesAndKeepsCountersCoherent) {
  const Topology topo = SoakTopo();
  Hypervisor hv(topo);
  const int64_t baseline_free = hv.frames().TotalFreeFrames();

  ChurnRunner runner(hv);
  const ChurnReport report = runner.Run(GenerateChurnTrace(SoakSpec()), DomainConfig{});
  EXPECT_GT(report.admitted, 0);

  // Cached per-node counters never drift from the bitmap, even after 10k
  // events of admission, ballooning, migration and teardown.
  for (NodeId node = 0; node < topo.num_nodes(); ++node) {
    EXPECT_EQ(hv.frames().RecountFreeFrames(node), hv.frames().FreeFrames(node))
        << "node " << node;
    const NodeSpace fast = ComputeNodeSpace(hv.frames(), node);
    const NodeSpace slow = RecountNodeSpace(hv.frames(), node);
    EXPECT_EQ(fast.free_frames, slow.free_frames) << "node " << node;
    EXPECT_EQ(fast.free_extents, slow.free_extents) << "node " << node;
    EXPECT_EQ(fast.largest_extent, slow.largest_extent) << "node " << node;
  }

  // Drain: destroying every surviving domain must return the machine to
  // its pre-churn free-frame level exactly — no leaked frames, no double
  // frees (asan/ubsan watches the heap side of the same property).
  for (DomainId id = 0; id < hv.num_domains(); ++id) {
    if (hv.DomainAlive(id)) {
      hv.DestroyDomain(id);
    }
  }
  EXPECT_EQ(hv.num_live_domains(), 0);
  EXPECT_EQ(hv.frames().TotalFreeFrames(), baseline_free);
  for (NodeId node = 0; node < topo.num_nodes(); ++node) {
    EXPECT_EQ(hv.frames().RecountFreeFrames(node), hv.frames().FreeFrames(node));
  }
}

TEST(ChurnSoakTest, DestroyDomainIsIdempotent) {
  const Topology topo = SoakTopo();
  Hypervisor hv(topo);
  DomainConfig dc;
  dc.num_vcpus = 2;
  dc.memory_pages = 32;
  const DomainId id = hv.CreateDomain(dc);
  const int64_t free_before = hv.frames().TotalFreeFrames();
  hv.DestroyDomain(id);
  const int64_t free_after = hv.frames().TotalFreeFrames();
  EXPECT_GT(free_after, free_before);
  EXPECT_FALSE(hv.DomainAlive(id));
  hv.DestroyDomain(id);  // second teardown is a no-op
  EXPECT_EQ(hv.frames().TotalFreeFrames(), free_after);
}

// A destroyed domain is a tombstone (docs/MODEL.md §17, invariant 6): a
// small record, smaller than a fresh empty table, that holds no frame, no
// pCPU and no domain object.
TEST(ChurnSoakTest, DestroyedDomainsRetainConstantStorage) {
  const Topology topo = SoakTopo();
  Hypervisor hv(topo);
  const int64_t baseline_free = hv.frames().TotalFreeFrames();
  ChurnRunner runner(hv);
  const ChurnSpec spec = SoakSpec();
  (void)runner.Run(GenerateChurnTrace(spec), DomainConfig{});

  int tombstones = 0;
  for (DomainId id = 0; id < hv.num_domains(); ++id) {
    if (hv.DomainAlive(id)) {
      continue;
    }
    ++tombstones;
    const DomainTombstone& tomb = hv.tombstone(id);
    EXPECT_LE(hv.TombstoneBytes(id), kTombstoneBytes) << "domain " << id;
    EXPECT_LE(hv.TombstoneBytes(id), FreshFootprint(tomb.memory_pages)) << "domain " << id;
    EXPECT_EQ(tomb.name.rfind("churn-", 0), 0u) << "domain " << id;
    EXPECT_GE(tomb.memory_pages, spec.min_pages) << "domain " << id;
    EXPECT_LE(tomb.memory_pages, spec.max_pages) << "domain " << id;
    EXPECT_FALSE(tomb.home_nodes.empty()) << "domain " << id;
  }
  EXPECT_GT(tombstones, 1000);
  ExpectOnlyLiveDomainsHoldResources(hv, baseline_free);
  for (DomainId id = 0; id < hv.num_domains(); ++id) {
    if (!hv.DomainAlive(id)) {
      ExpectNoDomainObject(hv, id);
      break;
    }
  }
}

// Per-epoch upkeep — a promotion tick over every table — over a machine
// full of tombstones leaves the live placement untouched.
TEST(ChurnSoakTest, EpochUpkeepOverTombstonesKeepsLivePlacement) {
  const Topology topo = SoakTopo();
  Hypervisor hv(topo);
  ChurnRunner runner(hv);
  const DomainConfig tmpl;
  (void)runner.Run(GenerateChurnTrace(SoakSpec()), tmpl);
  ASSERT_LT(hv.num_live_domains(), hv.num_domains());
  const uint64_t before = runner.Run({}, tmpl).placement_digest;
  const int live = hv.num_live_domains();

  PromotionDaemon daemon(hv, PromotionDaemon::Config{});
  daemon.Tick();
  EXPECT_EQ(runner.Run({}, tmpl).placement_digest, before);
  EXPECT_EQ(hv.num_live_domains(), live);
  for (DomainId id = 0; id < hv.num_domains(); ++id) {
    if (!hv.DomainAlive(id)) {
      EXPECT_LE(hv.TombstoneBytes(id), kTombstoneBytes) << "domain " << id;
    }
  }
}

// Tombstones of every shape: superpage-mapped, packed and vNUMA-tracked
// with PV-queue flushes, replicated. Each shrinks to a small record (less
// than a fresh table), leaves no domain object behind, keeps its identity
// and stats, and refuses a policy switch that would map it again.
TEST(ChurnSoakTest, TombstonesOfEveryShapeAreEmptyAndSmall) {
  const Topology topo = Topology::Amd48();
  Hypervisor hv(topo);

  DomainConfig huge;
  huge.name = "huge";
  huge.num_vcpus = 12;
  huge.memory_pages = 2048;
  huge.policy.placement = StaticPolicy::kRound1g;
  huge.p2m_max_order = PageOrder::k1G;
  const DomainId huge_id = hv.CreateDomain(huge);
  ASSERT_GT(hv.domain(huge_id).p2m().SuperpageCount(PageOrder::k1G), 0);

  DomainConfig shredded;
  shredded.name = "shredded";
  shredded.num_vcpus = 2;
  shredded.memory_pages = 1024;
  shredded.pinned_cpus = {0, 6};  // nodes 0 and 1
  shredded.policy.placement = StaticPolicy::kFirstTouch;
  shredded.vnuma = true;
  const DomainId shred_id = hv.CreateDomain(shredded);
  for (Pfn p = 0; p < P2mTable::kChunkPages; ++p) {
    ASSERT_TRUE(hv.backend(shred_id).MapOnNode(p, static_cast<NodeId>(p % 2)));
  }
  ASSERT_GT(hv.domain(shred_id).p2m().packed_chunk_count(), 0);
  ASSERT_EQ(hv.HandleGuestFault(shred_id, 700, 6), 1);
  const PageQueueOp ops[] = {{PageQueueOp::Kind::kRelease, 3},
                             {PageQueueOp::Kind::kRelease, 700}};
  hv.HypercallPageQueueFlush(shred_id, ops);
  VnumaInfo info;
  ASSERT_EQ(hv.HypercallGetVnumaInfo(shred_id, &info), HypercallStatus::kOk);

  DomainConfig replicated;
  replicated.name = "replicated";
  replicated.num_vcpus = 12;
  replicated.memory_pages = 1536;
  for (CpuId c = 0; c < 12; ++c) {
    replicated.pinned_cpus.push_back(c);  // nodes 0 and 1
  }
  replicated.p2m_replication = true;
  const DomainId repl_id = hv.CreateDomain(replicated);
  hv.domain(repl_id).p2m().FillReplica(1);
  ASSERT_GT(hv.domain(repl_id).p2m().replica_count(), 0);

  DomainConfig survivor;
  survivor.name = "survivor";
  survivor.num_vcpus = 4;
  survivor.memory_pages = 1024;
  survivor.policy.placement = StaticPolicy::kRound1g;
  survivor.p2m_max_order = PageOrder::k1G;
  const DomainId live_id = hv.CreateDomain(survivor);
  const uint64_t survivor_before = PlacementDigest(hv, live_id);
  const int64_t free_before = hv.frames().TotalFreeFrames();

  const int64_t shred_faults = hv.domain(shred_id).stats().hv_page_faults;
  for (const DomainId id : {huge_id, shred_id, repl_id}) {
    const std::vector<NodeId> homes = hv.domain(id).home_nodes();
    const PolicyConfig policy = hv.domain(id).policy_config();
    const int64_t pages = hv.domain(id).memory_pages();
    hv.DestroyDomain(id);
    const DomainTombstone& tomb = hv.tombstone(id);
    EXPECT_LE(hv.TombstoneBytes(id), kTombstoneBytes) << tomb.name;
    EXPECT_LE(hv.TombstoneBytes(id), FreshFootprint(pages)) << tomb.name;
    ExpectNoDomainObject(hv, id);
    EXPECT_EQ(tomb.memory_pages, pages) << tomb.name;
    EXPECT_EQ(tomb.home_nodes, homes) << tomb.name;
    EXPECT_EQ(tomb.policy_config, policy) << tomb.name;
    PolicyConfig round4k;
    round4k.placement = StaticPolicy::kRound4k;
    EXPECT_EQ(hv.HypercallSetPolicy(id, round4k), HypercallStatus::kBadDomain);
    EXPECT_FALSE(hv.DomainAlive(id)) << tomb.name;
  }
  EXPECT_EQ(hv.tombstone(huge_id).name, "huge");
  EXPECT_EQ(hv.tombstone(shred_id).name, "shredded");
  EXPECT_EQ(hv.tombstone(repl_id).name, "replicated");
  EXPECT_EQ(hv.tombstone(shred_id).stats.hv_page_faults, shred_faults);
  EXPECT_EQ(hv.frames().TotalFreeFrames(),
            free_before + huge.memory_pages + (P2mTable::kChunkPages - 1) +
                replicated.memory_pages);  // the flush released 2 of 513

  PromotionDaemon daemon(hv, PromotionDaemon::Config{});
  daemon.Tick();
  EXPECT_EQ(hv.num_live_domains(), 1);
  EXPECT_EQ(PlacementDigest(hv, live_id), survivor_before);
}

TEST(ChurnSoakTest, FragmentationMatchesHandComputedFixture) {
  // 2 nodes x 16 frames. Node 0: allocate frames 0..9, free {0,1,2,6,7,8}
  // => used {3,4,5,9}, free extents [0,3) [6,9) [10,16) of sizes 3, 3, 6 —
  // 12 free frames, largest run 6. FragIndex(node0) = 1 - 6/12 = 1/2;
  // node 1 untouched => 0. Machine = mean = 1/4.
  const Topology topo = Topology::Synthetic(2, 2, 64ll << 20);
  FrameAllocator frames(topo, 4ll << 20);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(frames.AllocOnNode(0), i);  // next-fit from an empty node
  }
  for (const Mfn mfn : {0, 1, 2, 6, 7, 8}) {
    frames.Free(mfn);
  }
  const NodeSpace space = ComputeNodeSpace(frames, 0);
  EXPECT_EQ(space.free_frames, 12);
  EXPECT_EQ(space.free_extents, 3);
  EXPECT_EQ(space.largest_extent, 6);
  EXPECT_DOUBLE_EQ(FragIndex(space), 0.5);
  EXPECT_DOUBLE_EQ(FragIndex(ComputeNodeSpace(frames, 1)), 0.0);
  EXPECT_DOUBLE_EQ(MachineFragmentation(frames), 0.25);
}

TEST(ChurnSoakTest, ChurnMetricsAreRecorded) {
  const Topology topo = SoakTopo();
  Hypervisor hv(topo);
  Observability obs;
  hv.set_observability(&obs);
  ChurnRunner runner(hv);
  ChurnSpec spec = SoakSpec();
  spec.num_events = 500;
  const ChurnReport report = runner.Run(GenerateChurnTrace(spec), DomainConfig{});

  const std::vector<MetricSnapshot> snaps = obs.metrics().Snapshot();
  auto value_of = [&](const std::string& name) -> int64_t {
    for (const MetricSnapshot& s : snaps) {
      if (s.name == name) {
        return s.count;
      }
    }
    ADD_FAILURE() << "metric not registered: " << name;
    return -1;
  };
  EXPECT_EQ(value_of("churn.events"), 500);
  EXPECT_EQ(value_of("churn.arrivals"), report.arrivals);
  EXPECT_EQ(value_of("churn.departures"), report.departures);
  EXPECT_EQ(value_of("admission.admitted"), report.admitted);
  EXPECT_EQ(value_of("admission.rejected"), report.rejected);
  EXPECT_EQ(value_of("admission.deferred"), report.deferred);
  EXPECT_EQ(value_of("hv.domains_destroyed"), report.departures);
}

// ---- Golden churn pins ----------------------------------------------------
// Generated before the churn digest's Mix was folded and before the
// admission memo and tombstone compaction landed; a bookkeeping change that
// is meant to be behaviour-neutral must keep them.

// FNV-1a 64 over the eight bytes of `v`, low byte first: the byte-wise
// definition the churn digest follows.
uint64_t ReferenceMix(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// The deterministic fields of a report (the solver latencies are wall clock).
uint64_t ReportDigest(const ChurnReport& r) {
  uint64_t h = 1469598103934665603ull;
  for (const int64_t x : {r.events, r.arrivals, r.admitted, r.deferred, r.rejected,
                          r.departures, r.balloon_down_pages, r.balloon_up_pages,
                          r.migrated_pages, static_cast<int64_t>(r.final_live_domains)}) {
    h = ReferenceMix(h, static_cast<uint64_t>(x));
  }
  h = ReferenceMix(h, DoubleBits(r.final_fragmentation));
  return ReferenceMix(h, r.placement_digest);
}

// The AMD48 tenant-admission shape (the bench/extra_churn soak shape).
ChurnSpec Amd48Spec(uint64_t seed, int num_events) {
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

TEST(ChurnSoakTest, GoldenAmd48ReplayInOneRun) {
  const Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  ChurnRunner runner(hv);
  const ChurnReport r = runner.Run(GenerateChurnTrace(Amd48Spec(7, 20000)), DomainConfig{});
  EXPECT_EQ(r.events, 20000);
  EXPECT_EQ(r.arrivals, 7003);
  EXPECT_EQ(r.admitted, 6784);
  EXPECT_EQ(r.deferred, 219);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.departures, 6781);
  EXPECT_EQ(r.balloon_down_pages, 39114);
  EXPECT_EQ(r.balloon_up_pages, 7776);
  EXPECT_EQ(r.migrated_pages, 11951);
  EXPECT_EQ(r.final_live_domains, 3);
  EXPECT_EQ(DoubleBits(r.final_fragmentation), 0x3fc5c5aecbc3fc40ull);
  EXPECT_EQ(r.placement_digest, 0xe5c995230a45671aull);
}

// One event per Run call, as the tenant_churn benchmark replays: every
// call's report (end-of-run fragmentation and digest included) is hashed.
TEST(ChurnSoakTest, GoldenAmd48OneEventPerRun) {
  const Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  ChurnRunner runner(hv);
  const DomainConfig tmpl;
  uint64_t h = 1469598103934665603ull;
  std::vector<ChurnEvent> one(1);
  for (const ChurnEvent& ev : GenerateChurnTrace(Amd48Spec(7, 2000))) {
    one[0] = ev;
    h = ReferenceMix(h, ReportDigest(runner.Run(one, tmpl)));
  }
  h = ReferenceMix(h, ReportDigest(runner.Run({}, tmpl)));
  EXPECT_EQ(h, 0x2cc0a37e570fcb78ull);
}

// The folded mixer equals byte-wise FNV-1a on values with every count of
// high zero bytes, and from states that are not the FNV offset basis.
TEST(ChurnSoakTest, MixMatchesBytewiseFnv1a) {
  std::vector<uint64_t> values = {0,
                                  0xff,
                                  0x100,
                                  uint64_t{1} << 56,
                                  ~0ull,
                                  static_cast<uint64_t>(kInvalidNode)};
  for (int bits = 1; bits <= 64; ++bits) {
    values.push_back(uint64_t{1} << (bits - 1));
    values.push_back(~0ull >> (64 - bits));
  }
  Rng rng(7);
  for (int i = 0; i < 256; ++i) {
    values.push_back(rng.NextU64() >> rng.NextInt(64));
  }
  for (const uint64_t start : {1469598103934665603ull, 0ull, ~0ull, 0x0123456789abcdefull}) {
    uint64_t chained = start;
    uint64_t reference = start;
    for (const uint64_t v : values) {
      uint64_t h = start;
      MixFnv1a(&h, v);
      EXPECT_EQ(h, ReferenceMix(start, v)) << std::hex << "v=" << v << " start=" << start;
      MixFnv1a(&chained, v);
      reference = ReferenceMix(reference, v);
    }
    EXPECT_EQ(chained, reference) << std::hex << "start=" << start;
  }
}

}  // namespace
}  // namespace xnuma
