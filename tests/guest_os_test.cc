#include "src/guest/guest_os.h"

#include <gtest/gtest.h>

#include "src/numa/topology.h"

namespace xnuma {
namespace {

class GuestOsTest : public ::testing::Test {
 protected:
  GuestOsTest() : topo_(Topology::Amd48()), hv_(topo_) {}

  DomainId MakeDomain(StaticPolicy policy) {
    DomainConfig dc;
    dc.num_vcpus = 4;
    dc.memory_pages = 64;
    dc.policy.placement = policy;
    dc.pinned_cpus = {0, 6, 12, 18};  // nodes 0..3
    return hv_.CreateDomain(dc);
  }

  Topology topo_;
  Hypervisor hv_;
};

TEST_F(GuestOsTest, LazyAllocationOnFirstTouch) {
  const DomainId id = MakeDomain(StaticPolicy::kFirstTouch);
  GuestOs guest(hv_, id);
  const int pid = guest.CreateProcess(16);

  const TouchResult r = guest.TouchPage(pid, 0, /*cpu=*/12);
  EXPECT_TRUE(r.guest_alloc);
  EXPECT_TRUE(r.hv_fault);
  EXPECT_EQ(r.node, 2);  // cpu 12 is on node 2

  // Second touch: fully mapped, no faults.
  const TouchResult r2 = guest.TouchPage(pid, 0, /*cpu=*/0);
  EXPECT_FALSE(r2.guest_alloc);
  EXPECT_FALSE(r2.hv_fault);
  EXPECT_EQ(r2.node, 2);
  EXPECT_EQ(guest.stats().guest_minor_faults, 1);
}

TEST_F(GuestOsTest, EagerPolicyTakesNoHvFault) {
  const DomainId id = MakeDomain(StaticPolicy::kRound4k);
  GuestOs guest(hv_, id);
  const int pid = guest.CreateProcess(16);
  const TouchResult r = guest.TouchPage(pid, 3, 0);
  EXPECT_TRUE(r.guest_alloc);
  EXPECT_FALSE(r.hv_fault);  // P2M already valid
  EXPECT_NE(r.node, kInvalidNode);
}

// TouchRange walks the P2M as the touching vCPU. With replication on, the
// walk-driven re-stamp must land on that vCPU's node, not on the node of
// the vCPU whose index is the pCPU id modulo the vCPU count.
TEST_F(GuestOsTest, TouchRangeRestampsTheTouchingVcpusNode) {
  DomainConfig dc;
  dc.num_vcpus = 4;
  dc.memory_pages = 64;
  dc.policy.placement = StaticPolicy::kRound4k;  // mapped before any touch
  dc.pinned_cpus = {0, 6, 12, 18};               // nodes 0..3, home node 0
  dc.p2m_replication = true;
  const DomainId id = hv_.CreateDomain(dc);
  const P2mTable& p2m = hv_.domain(id).p2m();
  ASSERT_TRUE(p2m.replication_enabled());
  ASSERT_EQ(p2m.ReplicaCoverage(2), 0.0);
  ASSERT_EQ(p2m.ReplicaCoverage(3), 0.0);

  // vCPU 3 touches from pCPU 18 (node 3); 18 % 4 names vCPU 2 (node 2).
  GuestOs guest(hv_, id);
  const int pid = guest.CreateProcess(16);
  double cost = 0.0;
  guest.TouchRange(pid, 0, 16, /*cpu=*/18, 1e-9, 1e-7, 1e-6, &cost, /*vcpu=*/3);
  EXPECT_GT(p2m.ReplicaCoverage(3), 0.0);
  EXPECT_EQ(p2m.ReplicaCoverage(2), 0.0);
  EXPECT_EQ(guest.stats().guest_minor_faults, 16);
}

TEST_F(GuestOsTest, FreeListIsLifo) {
  const DomainId id = MakeDomain(StaticPolicy::kRound4k);
  GuestOs guest(hv_, id);
  const int pid = guest.CreateProcess(16);
  guest.TouchPage(pid, 0, 0);
  const Pfn pfn = guest.PfnOfVpage(pid, 0);
  guest.ReleasePage(pid, 0);
  guest.TouchPage(pid, 1, 0);
  EXPECT_EQ(guest.PfnOfVpage(pid, 1), pfn);  // recycled immediately
}

TEST_F(GuestOsTest, ReleaseZeroesAndCounts) {
  const DomainId id = MakeDomain(StaticPolicy::kRound4k);
  GuestOs guest(hv_, id);
  const int pid = guest.CreateProcess(8);
  guest.TouchPage(pid, 2, 0);
  const int64_t free_before = guest.free_pages();
  guest.ReleasePage(pid, 2);
  EXPECT_EQ(guest.free_pages(), free_before + 1);
  EXPECT_EQ(guest.stats().releases, 1);
  EXPECT_EQ(guest.stats().pages_zeroed, 1);
  EXPECT_EQ(guest.NodeOfVpage(pid, 2), kInvalidNode);
  // Releasing an unmapped vpage is a no-op.
  guest.ReleasePage(pid, 2);
  EXPECT_EQ(guest.stats().releases, 1);
}

TEST_F(GuestOsTest, ParavirtReleaseReachesHypervisorWhenBatchFull) {
  const DomainId id = MakeDomain(StaticPolicy::kFirstTouch);
  GuestOs::Options opts;
  opts.mode = KernelMode::kParavirt;
  opts.queue_partition_bits = 0;
  opts.queue_batch_size = 4;
  GuestOs guest(hv_, id, opts);
  const int pid = guest.CreateProcess(16);

  for (Vpn v = 0; v < 8; ++v) {
    guest.TouchPage(pid, v, 0);
  }
  // Each touch queued an alloc op; 8 allocs = 2 flushes of 4 already.
  const int64_t flushes_after_touch = guest.pv_queue().GetStats().flushes;
  EXPECT_EQ(flushes_after_touch, 2);

  // Release 4 pages -> third flush; replay invalidates them (first-touch).
  for (Vpn v = 0; v < 4; ++v) {
    guest.ReleasePage(pid, v);
  }
  EXPECT_EQ(guest.pv_queue().GetStats().flushes, 3);
  EXPECT_EQ(hv_.domain(id).stats().pages_invalidated, 4);
}

TEST_F(GuestOsTest, ReallocatedPageInQueueStaysMapped) {
  const DomainId id = MakeDomain(StaticPolicy::kFirstTouch);
  GuestOs::Options opts;
  opts.queue_partition_bits = 0;
  opts.queue_batch_size = 3;
  GuestOs guest(hv_, id, opts);
  const int pid = guest.CreateProcess(16);

  guest.TouchPage(pid, 0, 0);  // queue: [alloc P]
  const Pfn pfn = guest.PfnOfVpage(pid, 0);
  guest.ReleasePage(pid, 0);   // queue: [alloc P, release P]
  guest.TouchPage(pid, 1, 6);  // reuses P (LIFO): queue flushes [alloc P, release P, alloc P]
  ASSERT_EQ(guest.PfnOfVpage(pid, 1), pfn);
  EXPECT_EQ(guest.pv_queue().GetStats().flushes, 1);
  // Most-recent op is the alloc: the page must still be mapped and must not
  // have moved (its content may already be in use, §4.2.4).
  EXPECT_TRUE(hv_.backend(id).IsMapped(pfn));
  EXPECT_EQ(hv_.domain(id).stats().reallocated_in_queue, 1);
  EXPECT_EQ(hv_.domain(id).stats().pages_invalidated, 0);
}

TEST_F(GuestOsTest, NativeKernelReleasesSynchronously) {
  const DomainId id = MakeDomain(StaticPolicy::kFirstTouch);
  GuestOs::Options opts;
  opts.mode = KernelMode::kNativeKernel;
  GuestOs guest(hv_, id, opts);
  const int pid = guest.CreateProcess(8);

  guest.TouchPage(pid, 0, 12);
  const Pfn pfn = guest.PfnOfVpage(pid, 0);
  ASSERT_TRUE(hv_.backend(id).IsMapped(pfn));
  guest.ReleasePage(pid, 0);
  // No hypercall, immediate invalidation.
  EXPECT_FALSE(hv_.backend(id).IsMapped(pfn));
  EXPECT_EQ(guest.pv_queue().GetStats().pushes, 0);

  // Next toucher re-places the page on its own node.
  guest.TouchPage(pid, 1, 18);
  EXPECT_EQ(guest.NodeOfVpage(pid, 1), 3);
}

TEST_F(GuestOsTest, ReleaseThenRetouchMovesPageUnderFirstTouch) {
  const DomainId id = MakeDomain(StaticPolicy::kFirstTouch);
  GuestOs::Options opts;
  opts.queue_partition_bits = 0;
  opts.queue_batch_size = 1;  // synchronous hypercall per op
  GuestOs guest(hv_, id, opts);
  const int pid = guest.CreateProcess(8);

  guest.TouchPage(pid, 0, 0);  // node 0
  EXPECT_EQ(guest.NodeOfVpage(pid, 0), 0);
  guest.ReleasePage(pid, 0);
  const TouchResult r = guest.TouchPage(pid, 2, 18);  // reuses pfn, node 3
  EXPECT_TRUE(r.hv_fault);
  EXPECT_EQ(r.node, 3);
}

TEST_F(GuestOsTest, MultipleProcessesShareFreeList) {
  const DomainId id = MakeDomain(StaticPolicy::kRound4k);
  GuestOs guest(hv_, id);
  const int pid_a = guest.CreateProcess(8);
  const int pid_b = guest.CreateProcess(8);
  guest.TouchPage(pid_a, 0, 0);
  const Pfn pfn = guest.PfnOfVpage(pid_a, 0);
  guest.ReleasePage(pid_a, 0);
  // Process B's next allocation reuses A's released physical page — exactly
  // the V0 -> V1 reuse of Figure 4.
  guest.TouchPage(pid_b, 5, 6);
  EXPECT_EQ(guest.PfnOfVpage(pid_b, 5), pfn);
}

}  // namespace
}  // namespace xnuma
