// Differential tests: the extent-compressed P2M must be bit-identical to
// the per-page reference representation, for every placement policy.
//
// The extent table is a pure representation change — split/merge bookkeeping,
// packed-chunk conversion and the range fast paths must never alter which
// frame a page maps to, which faults fire, or the order in which
// floating-point costs accumulate. Each policy therefore runs the same
// seeded simulation twice, once per representation, and every field of the
// result must match exactly. A fault-armed cell (uniform nonzero rates)
// additionally drives the rollback paths: a MapRange that fails mid-flight
// under the extent store must leave the exact observable state the per-page
// reference leaves.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/fault/fault.h"
#include "src/guest/guest_os.h"
#include "src/hv/hypervisor.h"
#include "src/hv/p2m.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/sim/engine.h"
#include "src/workload/app_profile.h"

namespace xnuma {
namespace {

// Restores the process-wide representation default even if a test fails.
class ScopedReferenceMode {
 public:
  explicit ScopedReferenceMode(bool on) { P2mTable::SetReferenceModeForTest(on); }
  ~ScopedReferenceMode() { P2mTable::SetReferenceModeForTest(false); }
};

AppProfile DiffChurnApp() {
  AppProfile app;
  app.name = "p2m-diff";
  app.cpu_cycles_per_access = 150;
  app.nominal_seconds = 0.5;
  app.release_rate_per_s = 20000.0;  // churn splits extents every epoch
  app.disk_read_mb = 64.0;
  RegionSpec shared;
  shared.name = "shared";
  shared.footprint_mb = 512;
  shared.init = AllocPattern::kMasterInit;
  shared.access_share = 0.6;
  shared.hot_fraction = 0.25;
  shared.hot_share = 0.8;
  app.regions.push_back(shared);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 256;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.4;
  priv.owner_affinity = 0.9;
  app.regions.push_back(priv);
  return app;
}

struct DiffCase {
  const char* label;
  StaticPolicy placement;
  bool carrefour;
  double fault_rate;  // 0 = fault layer off; >0 = uniform chaos plan
};

class P2mDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

struct DiffOutcome {
  JobResult job;
  FaultStats faults;
  int64_t guest_minor_faults = 0;
  int64_t guest_releases = 0;
};

DiffOutcome RunOnce(const AppProfile& app, const DiffCase& dc, bool reference) {
  ScopedReferenceMode mode(reference);
  EngineConfig ec;
  ec.seed = 21;
  ec.max_sim_seconds = 20.0;
  if (dc.fault_rate > 0.0) {
    ec.fault = FaultPlan::Uniform(/*seed=*/99, dc.fault_rate);
  }

  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  LatencyModel latency;
  DomainConfig cfg;
  cfg.name = "dom";
  cfg.num_vcpus = 12;
  cfg.memory_pages = 4096;
  for (int i = 0; i < 12; ++i) {
    cfg.pinned_cpus.push_back(i);
  }
  cfg.policy.placement = dc.placement;
  cfg.policy.carrefour = dc.carrefour;
  const DomainId dom = hv.CreateDomain(cfg);
  EXPECT_EQ(hv.domain(dom).p2m().reference_mode(), reference);
  GuestOs guest(hv, dom);
  Engine engine(hv, latency, ec);
  JobSpec spec;
  spec.app = &app;
  spec.domain = dom;
  spec.guest = &guest;
  spec.threads = 12;
  spec.vcpu_migration_period_s = 0.2;
  engine.AddJob(spec);
  const RunResult r = engine.Run();

  DiffOutcome out;
  out.job = r.jobs.back();
  out.faults = r.faults;
  out.guest_minor_faults = guest.stats().guest_minor_faults;
  out.guest_releases = guest.stats().releases;
  return out;
}

TEST_P(P2mDifferentialTest, ExtentTableIsBitIdenticalToReference) {
  const DiffCase dc = GetParam();
  const AppProfile app = DiffChurnApp();

  const DiffOutcome ext = RunOnce(app, dc, /*reference=*/false);
  const DiffOutcome ref = RunOnce(app, dc, /*reference=*/true);

  EXPECT_TRUE(ext.job.finished);
  EXPECT_TRUE(ref.job.finished);
  EXPECT_EQ(ext.job.completion_seconds, ref.job.completion_seconds);
  EXPECT_EQ(ext.job.init_seconds, ref.job.init_seconds);
  EXPECT_EQ(ext.job.compute_seconds, ref.job.compute_seconds);
  EXPECT_EQ(ext.job.imbalance_pct, ref.job.imbalance_pct);
  EXPECT_EQ(ext.job.interconnect_pct, ref.job.interconnect_pct);
  EXPECT_EQ(ext.job.avg_mc_util_pct, ref.job.avg_mc_util_pct);
  EXPECT_EQ(ext.job.avg_latency_cycles, ref.job.avg_latency_cycles);
  EXPECT_EQ(ext.job.observed_disk_mb_per_s, ref.job.observed_disk_mb_per_s);
  EXPECT_EQ(ext.job.hv_page_faults, ref.job.hv_page_faults);
  EXPECT_EQ(ext.job.carrefour_migrations, ref.job.carrefour_migrations);
  EXPECT_EQ(ext.job.faults_injected, ref.job.faults_injected);
  EXPECT_EQ(ext.job.faults_recovered, ref.job.faults_recovered);
  EXPECT_EQ(ext.job.faults_aborted, ref.job.faults_aborted);
  EXPECT_EQ(ext.guest_minor_faults, ref.guest_minor_faults);
  EXPECT_EQ(ext.guest_releases, ref.guest_releases);

  // Per-site fault traffic must match event-for-event, not just in total.
  for (int site = 0; site < kNumFaultSites; ++site) {
    EXPECT_EQ(ext.faults.injected[site], ref.faults.injected[site]) << "site " << site;
    EXPECT_EQ(ext.faults.recovered[site], ref.faults.recovered[site]) << "site " << site;
    EXPECT_EQ(ext.faults.aborted[site], ref.faults.aborted[site]) << "site " << site;
  }

  if (dc.fault_rate > 0.0) {
    // The armed cell is only meaningful if faults actually fired.
    EXPECT_GT(ext.faults.TotalInjected(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, P2mDifferentialTest,
    ::testing::Values(DiffCase{"first_touch", StaticPolicy::kFirstTouch, false, 0.0},
                      DiffCase{"round_4k", StaticPolicy::kRound4k, false, 0.0},
                      DiffCase{"round_1g", StaticPolicy::kRound1g, false, 0.0},
                      DiffCase{"first_touch_carrefour", StaticPolicy::kFirstTouch, true, 0.0},
                      DiffCase{"first_touch_faults", StaticPolicy::kFirstTouch, false, 0.02},
                      DiffCase{"round_1g_faults", StaticPolicy::kRound1g, false, 0.02}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace xnuma
