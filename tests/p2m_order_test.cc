// Unit and property tests for the P2M page-order hierarchy (docs/MODEL.md
// §14): superpage carving, lazy demand splitting, whole-span range
// operations, promotion round-trips, and the background promotion daemon's
// determinism contract.

#include "src/hv/p2m.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/hv/hypervisor.h"
#include "src/hv/promotion.h"
#include "src/numa/topology.h"

namespace xnuma {
namespace {

// A small synthetic geometry: 2M spans 8 pages, 1G spans 64, so both orders
// exist inside one 512-page chunk and the table stays cheap to sweep.
constexpr int64_t kSpan2m = 8;
constexpr int64_t kSpan1g = 64;
constexpr int64_t kPages = 4096;
constexpr Mfn kBase = 1 << 20;

P2mTable MakeOrderTable(PageOrder max_order = PageOrder::k1G) {
  P2mTable p2m(kPages);
  p2m.ConfigureOrders(max_order, kSpan2m, kSpan1g);
  return p2m;
}

// Full-table run decomposition: one (first, count, mfn, valid, writable)
// tuple per maximal run.
std::vector<P2mTable::Run> Decompose(const P2mTable& p2m) {
  std::vector<P2mTable::Run> runs;
  for (Pfn p = 0; p < p2m.num_pages();) {
    P2mTable::Run r = p2m.LookupRun(p);
    runs.push_back(r);
    p = r.first + r.count;
  }
  return runs;
}

bool SameRun(const P2mTable::Run& a, const P2mTable::Run& b) {
  return a.first == b.first && a.count == b.count && a.mfn == b.mfn &&
         a.valid == b.valid && a.writable == b.writable;
}

// Per-page view: what the guest observes. Promotion and splitting must never
// change this.
std::vector<uint64_t> PageView(const P2mTable& p2m) {
  std::vector<uint64_t> view(p2m.num_pages());
  for (Pfn p = 0; p < p2m.num_pages(); ++p) {
    view[p] = p2m.IsValid(p)
                  ? (static_cast<uint64_t>(p2m.Lookup(p)) << 2) |
                        (p2m.IsWritable(p) ? 2u : 0u) | 1u
                  : 0u;
  }
  return view;
}

TEST(P2mOrderTest, ConfigureOrdersSetsSpans) {
  P2mTable p2m = MakeOrderTable();
  EXPECT_EQ(p2m.max_order(), PageOrder::k1G);
  EXPECT_EQ(p2m.OrderSpan(PageOrder::k4K), 1);
  EXPECT_EQ(p2m.OrderSpan(PageOrder::k2M), kSpan2m);
  EXPECT_EQ(p2m.OrderSpan(PageOrder::k1G), kSpan1g);
}

TEST(P2mOrderTest, Max2mDisables1g) {
  P2mTable p2m = MakeOrderTable(PageOrder::k2M);
  EXPECT_EQ(p2m.max_order(), PageOrder::k2M);
  EXPECT_EQ(p2m.OrderSpan(PageOrder::k2M), kSpan2m);
  EXPECT_EQ(p2m.OrderSpan(PageOrder::k1G), 1);
  p2m.MapRange(0, kSpan1g, kBase);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k1G), 0);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k2M), kSpan1g / kSpan2m);
}

TEST(P2mOrderTest, DegenerateSpansDisableOrders) {
  // Spans of one page (the default 4 MiB frame scale for 2M) collapse the
  // order; a 1G span equal to the 2M span likewise adds nothing.
  P2mTable p2m(kPages);
  p2m.ConfigureOrders(PageOrder::k1G, 1, 1);
  EXPECT_EQ(p2m.max_order(), PageOrder::k4K);
  EXPECT_EQ(p2m.OrderSpan(PageOrder::k2M), 1);
  EXPECT_EQ(p2m.OrderSpan(PageOrder::k1G), 1);
}

TEST(P2mOrderTest, Max4kKeepsHierarchyOff) {
  P2mTable p2m = MakeOrderTable(PageOrder::k4K);
  EXPECT_EQ(p2m.max_order(), PageOrder::k4K);
  p2m.MapRange(0, kPages, kBase);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k2M), 0);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k1G), 0);
  EXPECT_GT(p2m.extent_count(), 0);
}

TEST(P2mOrderTest, ReferenceModeIgnoresOrders) {
  P2mTable::SetReferenceModeForTest(true);
  P2mTable p2m(kPages);
  p2m.ConfigureOrders(PageOrder::k1G, kSpan2m, kSpan1g);
  P2mTable::SetReferenceModeForTest(false);
  EXPECT_EQ(p2m.max_order(), PageOrder::k4K);
  p2m.MapRange(0, kSpan1g, kBase);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k1G), 0);
}

TEST(P2mOrderTest, AlignedMapCarves1gEntries) {
  P2mTable p2m = MakeOrderTable();
  p2m.MapRange(0, kPages, kBase);
  EXPECT_EQ(p2m.valid_count(), kPages);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k1G), kPages / kSpan1g);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k2M), 0);
  EXPECT_EQ(p2m.OrderPages(PageOrder::k1G), kPages);
  EXPECT_EQ(p2m.OrderPages(PageOrder::k4K), 0);
  EXPECT_EQ(p2m.extent_count(), 0);
  for (Pfn p = 0; p < kPages; p += 97) {
    EXPECT_EQ(p2m.Lookup(p), kBase + p);
    EXPECT_TRUE(p2m.IsWritable(p));
  }
  p2m.AuditCounters();
}

TEST(P2mOrderTest, MisalignedMapCarvesMixedOrders) {
  P2mTable p2m = MakeOrderTable();
  // [4, 136): 4K head [4,8), 2M entries [8,64), one 1G [64,128), 2M [128,136).
  p2m.MapRange(4, 132, kBase);
  EXPECT_EQ(p2m.valid_count(), 132);
  EXPECT_EQ(p2m.OrderPages(PageOrder::k4K), 4);
  EXPECT_EQ(p2m.OrderPages(PageOrder::k2M), 64);
  EXPECT_EQ(p2m.OrderPages(PageOrder::k1G), 64);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k2M), 8);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k1G), 1);
  for (Pfn p = 4; p < 136; ++p) {
    EXPECT_EQ(p2m.Lookup(p), kBase + (p - 4)) << "pfn " << p;
  }
  EXPECT_FALSE(p2m.IsValid(3));
  EXPECT_FALSE(p2m.IsValid(136));
  p2m.AuditCounters();
}

TEST(P2mOrderTest, SuperpageRunCoversWholeSpan) {
  P2mTable p2m = MakeOrderTable();
  p2m.MapRange(0, kPages, kBase);
  // Every page of the 1G span resolves to the one superpage run.
  for (Pfn p = 0; p < kSpan1g; ++p) {
    P2mTable::Run r = p2m.LookupRun(p);
    EXPECT_EQ(r.first, 0);
    EXPECT_EQ(r.count, kSpan1g);
    EXPECT_EQ(r.mfn, kBase);
    EXPECT_TRUE(r.valid);
  }
}

TEST(P2mOrderTest, InvalidRunClippedAtSuperpageBoundary) {
  P2mTable p2m = MakeOrderTable();
  // Only [64, 128) mapped, as a single 1G entry; the surrounding chunk has
  // no 4K state at all, so invalid runs must be clipped against it.
  p2m.MapRange(kSpan1g, kSpan1g, kBase);
  P2mTable::Run before = p2m.LookupRun(10);
  EXPECT_FALSE(before.valid);
  EXPECT_EQ(before.first, 0);
  EXPECT_EQ(before.count, kSpan1g);
  P2mTable::Run covered = p2m.LookupRun(kSpan1g + 5);
  EXPECT_TRUE(covered.valid);
  EXPECT_EQ(covered.first, kSpan1g);
  EXPECT_EQ(covered.count, kSpan1g);
  P2mTable::Run after = p2m.LookupRun(2 * kSpan1g + 3);
  EXPECT_FALSE(after.valid);
  EXPECT_EQ(after.first, 2 * kSpan1g);
}

TEST(P2mOrderTest, DemandSplitShattersOnlyTheTouchedSubBlock) {
  P2mTable p2m = MakeOrderTable();
  p2m.MapRange(0, 2 * kSpan1g, kBase);
  ASSERT_EQ(p2m.SuperpageCount(PageOrder::k1G), 2);
  p2m.Unmap(5);
  // 1G at 0 split into 2M children, then the 2M block holding page 5 split
  // into chunk extents; the second 1G entry and the sibling 2M blocks stay.
  EXPECT_EQ(p2m.superpage_split_count(), 2);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k1G), 1);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k2M), kSpan1g / kSpan2m - 1);
  EXPECT_EQ(p2m.OrderPages(PageOrder::k4K), kSpan2m - 1);
  EXPECT_EQ(p2m.valid_count(), 2 * kSpan1g - 1);
  EXPECT_FALSE(p2m.IsValid(5));
  EXPECT_EQ(p2m.Lookup(4), kBase + 4);
  EXPECT_EQ(p2m.Lookup(kSpan2m), kBase + kSpan2m);          // sibling 2M
  EXPECT_EQ(p2m.Lookup(kSpan1g + 7), kBase + kSpan1g + 7);  // untouched 1G
  p2m.AuditCounters();
}

TEST(P2mOrderTest, RemapSplitsToPageLevel) {
  P2mTable p2m = MakeOrderTable();
  p2m.MapRange(0, kSpan1g, kBase);
  p2m.Remap(9, 777);
  EXPECT_EQ(p2m.Lookup(9), 777);
  EXPECT_EQ(p2m.Lookup(8), kBase + 8);
  EXPECT_EQ(p2m.Lookup(10), kBase + 10);
  EXPECT_EQ(p2m.valid_count(), kSpan1g);
  EXPECT_EQ(p2m.superpage_split_count(), 2);
  p2m.AuditCounters();
}

TEST(P2mOrderTest, WholeSpanRangeOpsNeverSplit) {
  P2mTable p2m = MakeOrderTable();
  p2m.MapRange(0, kPages, kBase);
  p2m.WriteProtectRange(0, kSpan1g);
  EXPECT_EQ(p2m.superpage_split_count(), 0);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k1G), kPages / kSpan1g);
  EXPECT_FALSE(p2m.IsWritable(0));
  EXPECT_TRUE(p2m.IsValid(0));
  EXPECT_TRUE(p2m.IsWritable(kSpan1g));
  // Single-page protect of an already-protected superpage page: no split.
  p2m.WriteProtect(3);
  EXPECT_EQ(p2m.superpage_split_count(), 0);
  p2m.WriteUnprotectRange(0, kSpan1g);
  EXPECT_TRUE(p2m.IsWritable(0));
  // Whole-superpage unmap drops the entry in place.
  p2m.UnmapRange(kSpan1g, kSpan1g);
  EXPECT_EQ(p2m.superpage_split_count(), 0);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k1G), kPages / kSpan1g - 1);
  EXPECT_EQ(p2m.valid_count(), kPages - kSpan1g);
  p2m.AuditCounters();
}

TEST(P2mOrderTest, PartialProtectSplitsOneLevelPerStep) {
  P2mTable p2m = MakeOrderTable();
  p2m.MapRange(0, kSpan1g, kBase);
  p2m.WriteProtect(9);
  EXPECT_EQ(p2m.superpage_split_count(), 2);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k1G), 0);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k2M), kSpan1g / kSpan2m - 1);
  EXPECT_FALSE(p2m.IsWritable(9));
  EXPECT_TRUE(p2m.IsWritable(8));
  EXPECT_TRUE(p2m.IsWritable(10));
  p2m.AuditCounters();
}

TEST(P2mOrderTest, TryPromoteRebuildsSuperpages) {
  P2mTable p2m = MakeOrderTable();
  p2m.MapRange(0, kSpan1g, kBase);
  const std::vector<uint64_t> view = PageView(p2m);
  const std::vector<P2mTable::Run> runs = Decompose(p2m);

  // Fragment: shatter the first 1G down to the page level and back.
  const Mfn victim = p2m.Unmap(5);
  p2m.Map(5, victim);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k1G), 0);
  EXPECT_GT(p2m.extent_count(), 0);

  // Heal: 2M first, then 1G over the mixed 2M/extent span.
  EXPECT_TRUE(p2m.TryPromote(0, PageOrder::k2M));
  EXPECT_TRUE(p2m.TryPromote(0, PageOrder::k1G));
  EXPECT_EQ(p2m.promotion_count(), 2);

  // Exact round-trip: same run decomposition, same per-page view, no
  // leftover chunk extents.
  const std::vector<P2mTable::Run> healed = Decompose(p2m);
  ASSERT_EQ(healed.size(), runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_TRUE(SameRun(healed[i], runs[i])) << "run " << i;
  }
  EXPECT_EQ(PageView(p2m), view);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k1G), 1);
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k2M), 0);
  EXPECT_EQ(p2m.extent_count(), 0);
  p2m.AuditCounters();
}

TEST(P2mOrderTest, TryPromoteRejectsNonPromotableSpans) {
  P2mTable p2m = MakeOrderTable();
  // Not all valid.
  p2m.MapRange(1, kSpan2m - 1, kBase);
  EXPECT_FALSE(p2m.TryPromote(0, PageOrder::k2M));
  // Not machine-contiguous.
  p2m.MapRange(kSpan2m, kSpan2m / 2, 5000);
  p2m.MapRange(kSpan2m + kSpan2m / 2, kSpan2m / 2, 9000);
  EXPECT_FALSE(p2m.TryPromote(kSpan2m, PageOrder::k2M));
  // Mixed writability.
  p2m.MapRange(2 * kSpan2m, kSpan2m, kBase + 2 * kSpan2m);
  p2m.WriteProtect(2 * kSpan2m + 1);
  EXPECT_FALSE(p2m.TryPromote(2 * kSpan2m, PageOrder::k2M));
  // Already covered by a superpage of this order (MapRange carved it
  // natively — nothing left to promote).
  p2m.MapRange(kSpan1g, kSpan2m, kBase + kSpan1g);
  ASSERT_EQ(p2m.SuperpageCount(PageOrder::k2M), 1);
  EXPECT_FALSE(p2m.TryPromote(kSpan1g, PageOrder::k2M));
  p2m.AuditCounters();
}

TEST(P2mOrderTest, PromotionDoesNotRequireMfnAlignment) {
  // Machine contiguity is the requirement, not mfn alignment: the simulated
  // frame allocator hands out arbitrary contiguous frame runs.
  P2mTable p2m = MakeOrderTable();
  // Per-page maps, so the span accumulates as chunk extents (MapRange
  // would carve the superpage natively).
  for (int64_t i = 0; i < kSpan2m; ++i) {
    p2m.Map(i, 12345 + i);
  }
  ASSERT_EQ(p2m.SuperpageCount(PageOrder::k2M), 0);
  EXPECT_TRUE(p2m.TryPromote(0, PageOrder::k2M));
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k2M), 1);
  EXPECT_EQ(p2m.Lookup(3), 12348);
}

TEST(P2mOrderTest, MemoryAccountingSurvivesSplitPromoteCycles) {
  P2mTable p2m = MakeOrderTable();
  p2m.MapRange(0, kPages, kBase);
  const int64_t healthy_bytes = p2m.MemoryBytes();
  // Ten churn cycles over the same 1G slot: the emptied chunk must release
  // its heap on promotion, so the footprint cannot creep upward.
  int64_t after_heal = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    const Mfn m = p2m.Unmap(17);
    p2m.Map(17, m);
    // Only the 2M block holding page 17 shattered; heal it, then the 1G.
    ASSERT_TRUE(p2m.TryPromote((17 / kSpan2m) * kSpan2m, PageOrder::k2M));
    ASSERT_TRUE(p2m.TryPromote(0, PageOrder::k1G));
    p2m.AuditCounters();
    const int64_t bytes = p2m.MemoryBytes();
    if (cycle == 0) {
      after_heal = bytes;
    } else {
      EXPECT_EQ(bytes, after_heal) << "cycle " << cycle;
    }
  }
  EXPECT_EQ(p2m.extent_count(), 0);
  EXPECT_EQ(p2m.valid_count(), kPages);
  // The healed table keeps two one-time allocations: the lazily created 2M
  // slot array (the first split is the first 2M install) and one empty
  // chunk header. Everything else — extent storage — must be released.
  const int64_t slot_array = (kPages / kSpan2m) * 8;
  EXPECT_LE(after_heal, healthy_bytes + slot_array + 256);
}

TEST(P2mOrderTest, RandomChurnPromoteSweepRoundTrips) {
  // Property: after arbitrary unmap/remap churn, promoting every aligned
  // slot that will take it never changes the per-page view, and the audit
  // invariants hold at every step.
  Rng rng(0xfeedULL);
  P2mTable p2m = MakeOrderTable();
  p2m.MapRange(0, kPages, kBase);
  for (int step = 0; step < 200; ++step) {
    const Pfn p = rng.NextInt(kPages);
    if (rng.NextBool(0.5)) {
      const Mfn m = p2m.Unmap(p);
      p2m.Map(p, m);  // re-map in place: keeps the span promotable
    } else {
      p2m.Remap(p, kBase + p);  // self-remap via the migration path
    }
  }
  const std::vector<uint64_t> view = PageView(p2m);
  for (Pfn s = 0; s < kPages; s += kSpan2m) {
    p2m.TryPromote(s, PageOrder::k2M);
  }
  for (Pfn s = 0; s < kPages; s += kSpan1g) {
    p2m.TryPromote(s, PageOrder::k1G);
  }
  p2m.AuditCounters();
  EXPECT_EQ(PageView(p2m), view);
  // Every page was left contiguously self-mapped, so the sweep heals the
  // whole table back to pure 1G coverage.
  EXPECT_EQ(p2m.SuperpageCount(PageOrder::k1G), kPages / kSpan1g);
  EXPECT_EQ(p2m.extent_count(), 0);
  EXPECT_EQ(p2m.OrderPages(PageOrder::k4K), 0);
}

// ---- Promotion daemon ----------------------------------------------------

// A first-touch domain starts unmapped, so the test can lay out and
// fragment the table by hand. At the default 4 MiB frame scale only the 1G
// order (256 pages) exists.
DomainId MakeOrderDomain(Hypervisor& hv, int64_t pages) {
  DomainConfig dc;
  dc.name = "orders";
  dc.num_vcpus = 2;
  dc.memory_pages = pages;
  dc.policy.placement = StaticPolicy::kFirstTouch;
  dc.p2m_max_order = PageOrder::k1G;
  return hv.CreateDomain(dc);
}

TEST(PromotionDaemonTest, HealsFragmentedSlotsDeterministically) {
  const int64_t pages = 2048;
  auto fragment = [&](Hypervisor& hv) {
    const DomainId id = MakeOrderDomain(hv, pages);
    P2mTable& p2m = hv.domain(id).p2m();
    const int64_t span = p2m.OrderSpan(PageOrder::k1G);
    EXPECT_GT(span, 1);
    p2m.MapRange(0, pages, 7000);
    for (int64_t slot : {0, 3, 5}) {
      const Pfn p = slot * span + 1;
      const Mfn m = p2m.Unmap(p);
      p2m.Map(p, m);
    }
    EXPECT_EQ(p2m.SuperpageCount(PageOrder::k1G), pages / span - 3);
    return id;
  };

  Topology topo = Topology::Amd48();
  Hypervisor hv_a(topo);
  Hypervisor hv_b(topo);
  const DomainId dom_a = fragment(hv_a);
  const DomainId dom_b = fragment(hv_b);

  PromotionDaemon::Config cfg;
  cfg.slots_per_epoch = 4;
  cfg.seed = 9;
  PromotionDaemon daemon_a(hv_a, cfg);
  PromotionDaemon daemon_b(hv_b, cfg);

  P2mTable& p2m_a = hv_a.domain(dom_a).p2m();
  const int64_t span = p2m_a.OrderSpan(PageOrder::k1G);
  for (int tick = 0; tick < 8; ++tick) {
    daemon_a.Tick();
    daemon_b.Tick();
    // Identical configs sweep identically, tick for tick.
    EXPECT_EQ(daemon_a.promotions(), daemon_b.promotions());
    EXPECT_EQ(daemon_a.slots_examined(), daemon_b.slots_examined());
  }
  // 8 ticks x 4 slots covers the 8-slot table several times over: every
  // fragmented slot healed, nothing else changed.
  EXPECT_EQ(daemon_a.promotions(), 3);
  EXPECT_EQ(p2m_a.SuperpageCount(PageOrder::k1G), pages / span);
  EXPECT_EQ(p2m_a.promotion_count(), 3);
  p2m_a.AuditCounters();
  EXPECT_EQ(PageView(p2m_a), PageView(hv_b.domain(dom_b).p2m()));
}

TEST(PromotionDaemonTest, DifferentSeedsSweepDifferentPhases) {
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  const DomainId id = MakeOrderDomain(hv, 2048);
  P2mTable& p2m = hv.domain(id).p2m();
  p2m.MapRange(0, 2048, 7000);
  // Examination volume is seed-independent (budget is fixed); only the
  // phase differs, which this coarse check cannot see — assert the budget.
  PromotionDaemon d1(hv, {.slots_per_epoch = 4, .seed = 1});
  d1.Tick();
  EXPECT_EQ(d1.slots_examined(), 4);
  EXPECT_EQ(d1.promotions(), 0);  // fully 1G-covered: nothing to promote
}

TEST(PromotionDaemonTest, SkipsOrderDisabledDomains) {
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  DomainConfig dc;
  dc.name = "plain";
  dc.num_vcpus = 2;
  dc.memory_pages = 512;
  const DomainId id = hv.CreateDomain(dc);  // default round-4K, max order 4K
  PromotionDaemon daemon(hv, {});
  daemon.Tick();
  EXPECT_EQ(daemon.slots_examined(), 0);
  EXPECT_EQ(daemon.promotions(), 0);
  EXPECT_EQ(hv.domain(id).p2m().promotion_count(), 0);
}

}  // namespace
}  // namespace xnuma
