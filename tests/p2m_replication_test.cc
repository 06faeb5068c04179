// Unit and property tests for per-node P2M replication (docs/MODEL.md §18):
// generation-stamp coverage accounting, write-fault-driven copy
// invalidation, walk-driven re-stamping after a wholesale drop, superpage
// splits under replication, domain teardown, and the invalidation-vs-walk
// race (run under TSan by `ctest --preset tsan -L repl`).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/hv/hv_backend.h"
#include "src/hv/hypervisor.h"
#include "src/hv/p2m.h"
#include "src/numa/topology.h"

namespace xnuma {
namespace {

constexpr int64_t kPages = 4096;  // 8 chunks of 512 pages
constexpr Mfn kBase = 1 << 20;
constexpr int kNodes = 4;

// Synthetic order geometry, as in p2m_order_test: 1G spans 64 pages so
// superpages and chunks coexist cheaply.
constexpr int64_t kSpan2m = 8;
constexpr int64_t kSpan1g = 64;

P2mTable MakeTable(int num_vcpus = 2) {
  P2mTable p2m(kPages);
  p2m.ConfigureVcpus(num_vcpus);
  p2m.MapRange(0, kPages, kBase);
  return p2m;
}

TEST(P2mReplicationTest, DisabledTableIsHomeOnly) {
  P2mTable p2m = MakeTable();
  EXPECT_FALSE(p2m.replication_enabled());
  EXPECT_EQ(p2m.ReplicaCoverage(0), 1.0);  // home node: master is local
  EXPECT_EQ(p2m.ReplicaCoverage(1), 0.0);
  EXPECT_EQ(p2m.replica_count(), 0);
  EXPECT_EQ(p2m.replica_invalidations(), 0);
  p2m.AuditCounters();
}

TEST(P2mReplicationTest, FillAndCoverageAccounting) {
  P2mTable p2m = MakeTable();
  p2m.EnableReplication(kNodes, /*home_node=*/0);
  EXPECT_TRUE(p2m.replication_enabled());
  EXPECT_EQ(p2m.ReplicaCoverage(1), 0.0);  // not instantiated yet

  p2m.FillReplica(1);
  EXPECT_EQ(p2m.replica_count(), 1);
  EXPECT_EQ(p2m.ReplicaCoverage(1), 1.0);
  EXPECT_EQ(p2m.ReplicaCoverage(2), 0.0);
  EXPECT_EQ(p2m.ReplicaCoverage(0), 1.0);

  // A master mutation drops exactly the touched chunk's copy: 1 of the 8
  // chunks goes stale.
  p2m.Unmap(0);
  EXPECT_EQ(p2m.replica_invalidations(), 1);
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 7.0 / 8.0);

  // Refill restores full coverage; the home node never needs one.
  p2m.FillReplica(1);
  EXPECT_EQ(p2m.ReplicaCoverage(1), 1.0);
  p2m.FillReplica(0);
  EXPECT_EQ(p2m.replica_count(), 1);
  p2m.AuditCounters();
}

TEST(P2mReplicationTest, InvalidationCountsOncePerValidToStaleEdge) {
  P2mTable p2m = MakeTable();
  p2m.EnableReplication(kNodes, 0);
  p2m.FillReplica(1);
  p2m.FillReplica(2);

  // Two mutations in the same chunk: only the first finds a current copy.
  p2m.Unmap(10);
  p2m.Unmap(11);
  EXPECT_EQ(p2m.replica_invalidations(), 2);  // one per replica, not four
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(2), 7.0 / 8.0);
  p2m.AuditCounters();
}

TEST(P2mReplicationTest, RemoteWalkLazilyRestampsItsNodesReplica) {
  P2mTable p2m = MakeTable(/*num_vcpus=*/2);
  p2m.EnableReplication(kNodes, 0);
  // vCPU 0 walks from node 1; SetVcpuNode instantiates the (empty) replica.
  p2m.SetVcpuNode(0, 1);
  EXPECT_EQ(p2m.replica_count(), 1);
  EXPECT_EQ(p2m.ReplicaCoverage(1), 0.0);

  // The miss walks the master and re-copies the resolved chunk.
  (void)p2m.LookupRun(0, /*vcpu=*/0);
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 1.0 / 8.0);
  (void)p2m.LookupRun(600, /*vcpu=*/0);  // second chunk
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 2.0 / 8.0);

  // A home-node walk (vCPU 1 defaults to home) stamps nothing.
  (void)p2m.LookupRun(1200, /*vcpu=*/1);
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 2.0 / 8.0);
  p2m.AuditCounters();
}

// Dropping one node's replica mid-epoch affects exactly the vCPUs walking
// from that node: their next walk is remote and re-stamps the dropped
// node, while walks from other nodes leave it alone.
TEST(P2mReplicationTest, MidEpochReplicaDropClipsOnlyThatNodesVcpus) {
  P2mTable p2m = MakeTable(/*num_vcpus=*/2);
  p2m.EnableReplication(kNodes, 0);
  p2m.SetVcpuNode(0, 1);
  p2m.SetVcpuNode(1, 2);
  p2m.FillReplica(1);
  p2m.FillReplica(2);

  // Walks over current copies change nothing.
  (void)p2m.LookupRun(0, 0);
  (void)p2m.LookupRun(0, 1);
  EXPECT_EQ(p2m.ReplicaCoverage(1), 1.0);
  EXPECT_EQ(p2m.ReplicaCoverage(2), 1.0);

  const int64_t inval_before = p2m.replica_invalidations();
  p2m.InvalidateReplicas(1);
  EXPECT_EQ(p2m.replica_invalidations(), inval_before + 1);
  EXPECT_EQ(p2m.ReplicaCoverage(1), 0.0);
  EXPECT_EQ(p2m.ReplicaCoverage(2), 1.0);

  // vCPU 0 (node 1) re-walks and re-stamps the chunk it resolved on node 1
  // only; vCPU 1's walks (node 2) never touch node 1's replica.
  (void)p2m.LookupRun(0, 0);
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 1.0 / 8.0);
  EXPECT_EQ(p2m.ReplicaCoverage(2), 1.0);
  (void)p2m.LookupRun(600, 1);
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 1.0 / 8.0);
  EXPECT_EQ(p2m.ReplicaCoverage(2), 1.0);
  p2m.AuditCounters();
}

// A superpage split under replication stales every replica's superpage
// stamp and the split chunk's copy; a walk from one node then re-stamps
// that node alone.
TEST(P2mReplicationTest, SplitUnderReplicationClipsAllReplicas) {
  P2mTable p2m(kPages);
  p2m.ConfigureOrders(PageOrder::k1G, kSpan2m, kSpan1g);
  p2m.ConfigureVcpus(2);
  p2m.MapRange(0, kPages, kBase);
  ASSERT_GT(p2m.SuperpageCount(PageOrder::k1G), 0);

  p2m.EnableReplication(kNodes, 0);
  p2m.SetVcpuNode(0, 1);
  p2m.SetVcpuNode(1, 2);
  p2m.FillReplica(1);
  p2m.FillReplica(2);
  EXPECT_EQ(p2m.ReplicaCoverage(1), 1.0);

  // Both nodes walk the same superpage run over current copies.
  (void)p2m.LookupRun(0, 0);
  (void)p2m.LookupRun(0, 1);
  EXPECT_EQ(p2m.ReplicaCoverage(1), 1.0);
  EXPECT_EQ(p2m.ReplicaCoverage(2), 1.0);

  // A per-page mutation inside the superpage shatters it: the sp
  // generation bump stales the stamp on BOTH replicas...
  const int64_t inval_before = p2m.replica_invalidations();
  p2m.Unmap(kSpan1g / 2);
  EXPECT_GT(p2m.superpage_split_count(), 0);
  EXPECT_GT(p2m.replica_invalidations(), inval_before + 1);
  EXPECT_LT(p2m.ReplicaCoverage(1), 1.0);
  EXPECT_LT(p2m.ReplicaCoverage(2), 1.0);
  EXPECT_EQ(p2m.ReplicaCoverage(1), p2m.ReplicaCoverage(2));

  // ...and a walk from node 1 over the shattered span (a 2M child, then
  // the split chunk) re-stamps node 1 alone.
  const double stale = p2m.ReplicaCoverage(2);
  (void)p2m.LookupRun(0, 0);
  (void)p2m.LookupRun(kSpan1g / 2, 0);
  EXPECT_EQ(p2m.ReplicaCoverage(1), 1.0);
  EXPECT_EQ(p2m.ReplicaCoverage(2), stale);
  p2m.AuditCounters();
}

TEST(P2mReplicationTest, MemoryBytesChargesStampArrays) {
  P2mTable p2m = MakeTable();
  const int64_t before = p2m.MemoryBytes();
  p2m.EnableReplication(kNodes, 0);
  p2m.FillReplica(1);
  EXPECT_GT(p2m.MemoryBytes(), before);
  p2m.DisableReplication();
  EXPECT_EQ(p2m.replica_count(), 0);
  EXPECT_FALSE(p2m.replication_enabled());
}

TEST(P2mReplicationTest, WalkTotalsAccumulate) {
  P2mTable p2m = MakeTable();
  p2m.NoteWalks(10, 3);
  p2m.NoteWalks(5, 0);
  EXPECT_EQ(p2m.local_walks(), 15);
  EXPECT_EQ(p2m.remote_walks(), 3);
}

// Satellite: DestroyDomain must tear down Carrefour page-replication state
// and the per-node P2M replicas — even for pages that were unmapped while
// replicated, which the mapped-run walk cannot reach.
TEST(P2mReplicationTest, DestroyDomainTearsDownReplicationState) {
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  const int64_t frames_baseline = hv.frames().TotalFreeFrames();

  DomainConfig cfg;
  cfg.name = "repl-teardown";
  cfg.num_vcpus = 12;
  cfg.memory_pages = 512;
  for (int i = 0; i < 12; ++i) {
    cfg.pinned_cpus.push_back(i);  // nodes 0 and 1 → two home nodes
  }
  cfg.policy.placement = StaticPolicy::kRound4k;
  cfg.p2m_replication = true;
  const DomainId dom = hv.CreateDomain(cfg);
  Domain& d = hv.domain(dom);
  ASSERT_TRUE(d.p2m().replication_enabled());
  EXPECT_GT(d.p2m().replica_count(), 0);  // vCPUs on node 1 instantiate one
  d.p2m().FillReplica(1);

  // Replicate a page, then release it behind the collapse path's back —
  // the replica frames now survive only in the domain's replica map.
  const Pfn victim = 7;
  ASSERT_TRUE(hv.backend(dom).Replicate(victim));
  ASSERT_TRUE(d.IsReplicated(victim));
  hv.frames().Free(d.p2m().Unmap(victim));
  ASSERT_TRUE(d.IsReplicated(victim));

  hv.DestroyDomain(dom);
  // The domain object, its replica map and its P2M replicas are gone; the
  // tombstone's stats record the orphaned replica set's collapse.
  EXPECT_FALSE(hv.DomainAlive(dom));
  EXPECT_EQ(hv.tombstone(dom).stats.pages_replicated, 1);
  EXPECT_EQ(hv.tombstone(dom).stats.replicas_collapsed, 1);
  // Every frame came back: the masters, and the orphaned replica copies.
  EXPECT_EQ(hv.frames().TotalFreeFrames(), frames_baseline);
}

// Invalidation-vs-walk race: one thread drops and refills a node's replica
// while vCPUs walk from it. Walks must always return the correct
// translation (the master never mutates here) without tearing; run under
// TSan via `ctest --preset tsan -L repl`. No observability is attached and no
// audit runs concurrently — under this race the valid-chunk counter is a
// heuristic and may drift, which coverage clamps but an audit would flag.
TEST(P2mReplicationTest, InvalidateVsWalkRaceReturnsCorrectRuns) {
  constexpr int kReaders = 3;
  P2mTable p2m(kPages);
  p2m.ConfigureVcpus(kReaders);
  p2m.MapRange(0, kPages, kBase);
  p2m.EnableReplication(kNodes, 0);
  for (int i = 0; i < kReaders; ++i) {
    p2m.SetVcpuNode(i, 1 + i % (kNodes - 1));
    p2m.FillReplica(1 + i % (kNodes - 1));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&p2m, &stop, &bad, i] {
      uint64_t x = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(i + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Pfn pfn = static_cast<Pfn>(x % kPages);
        const P2mTable::Run run = p2m.LookupRun(pfn, i);
        if (!run.valid || pfn < run.first || pfn >= run.first + run.count ||
            run.mfn + (pfn - run.first) != kBase + pfn) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread dropper([&p2m, &stop] {
    for (int iter = 0; iter < 2000; ++iter) {
      const int node = 1 + iter % (kNodes - 1);
      p2m.InvalidateReplicas(node);
      p2m.FillReplica(node);
    }
    stop.store(true, std::memory_order_relaxed);
  });
  dropper.join();
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(p2m.replica_invalidations(), 2000);
}

}  // namespace
}  // namespace xnuma
