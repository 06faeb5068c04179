// Tests for the fixed-point solver's early exits and iteration telemetry.
//
// The default exit (fixed_point_tolerance = 0) stops only once the
// utilization state repeats exactly, so it must reproduce the fixed-count
// solve (fixed_point_tolerance < 0) bit for bit; that solve is the oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "src/core/experiment.h"
#include "src/guest/guest_os.h"
#include "src/hv/hypervisor.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"
#include "src/sim/engine.h"
#include "src/workload/app_profile.h"
#include "tests/outcome_matchers.h"

namespace xnuma {
namespace {

AppProfile SmallApp(double cycles_per_access = 150.0) {
  AppProfile app;
  app.name = "fp-app";
  app.cpu_cycles_per_access = cycles_per_access;
  app.nominal_seconds = 0.5;
  RegionSpec shared;
  shared.name = "shared";
  shared.footprint_mb = 512;
  shared.init = AllocPattern::kMasterInit;
  shared.access_share = 0.7;
  app.regions.push_back(shared);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 256;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.3;
  priv.owner_affinity = 0.9;
  app.regions.push_back(priv);
  return app;
}

struct FpMachine {
  Topology topo = Topology::Amd48();
  Hypervisor hv{topo};
  LatencyModel latency;
  std::unique_ptr<GuestOs> guest;
  std::unique_ptr<Engine> engine;

  FpMachine(const EngineConfig& ec, const AppProfile& app, int threads = 12) {
    DomainConfig dc;
    dc.name = "dom";
    dc.num_vcpus = threads;
    dc.memory_pages = AppSimPages(app, hv.frames().bytes_per_frame(), ec.min_region_pages) + 64;
    for (int i = 0; i < threads; ++i) {
      dc.pinned_cpus.push_back(i);
    }
    dc.policy.placement = StaticPolicy::kRound4k;
    const DomainId dom = hv.CreateDomain(dc);
    guest = std::make_unique<GuestOs>(hv, dom);
    engine = std::make_unique<Engine>(hv, latency, ec);
    JobSpec spec;
    spec.app = &app;
    spec.domain = dom;
    spec.guest = guest.get();
    spec.threads = threads;
    engine->AddJob(spec);
  }
};

TEST(FixedPointTest, NegativeToleranceRunsEveryIteration) {
  const AppProfile app = SmallApp();
  EngineConfig ec;
  ec.seed = 5;
  ec.fixed_point_tolerance = -1.0;  // the oracle: fixed iteration count
  FpMachine m(ec, app);
  RunResult r = m.engine->Run();
  ASSERT_TRUE(r.jobs.back().finished);
  ASSERT_GT(m.engine->epochs_run(), 0);
  EXPECT_EQ(m.engine->fixed_point_iterations_total(),
            m.engine->epochs_run() * ec.fixed_point_iterations);
  EXPECT_EQ(m.engine->last_fixed_point_exit(), FixedPointExit::kCap);
}

TEST(FixedPointTest, EarlyExitSavesIterationsAndMatchesWithinTolerance) {
  const AppProfile app = SmallApp();
  JobResult results[2];
  int64_t totals[2];
  int64_t epochs[2];
  for (int i = 0; i < 2; ++i) {
    EngineConfig ec;
    ec.seed = 5;
    ec.fixed_point_tolerance = i == 0 ? -1.0 : 1e-7;
    FpMachine m(ec, app);
    RunResult r = m.engine->Run();
    ASSERT_TRUE(r.jobs.back().finished);
    results[i] = r.jobs.back();
    totals[i] = m.engine->fixed_point_iterations_total();
    epochs[i] = m.engine->epochs_run();
  }
  // The converged steady state makes most epochs exit after a handful of
  // iterations.
  EXPECT_LT(totals[1], totals[0]);
  EXPECT_LT(totals[1], epochs[1] * EngineConfig{}.fixed_point_iterations);
  // Results agree within a tolerance-scale relative error.
  EXPECT_NEAR(results[1].completion_seconds, results[0].completion_seconds,
              1e-4 * results[0].completion_seconds);
  EXPECT_NEAR(results[1].avg_latency_cycles, results[0].avg_latency_cycles,
              1e-4 * results[0].avg_latency_cycles);
}

TEST(FixedPointTest, OverloadStillTerminatesAtIterationCap) {
  // A bandwidth-hungry app (few CPU cycles per access, all 48 threads) that
  // drives the controllers into the overload region, where the iteration
  // oscillates and never meets a tiny tolerance.
  const AppProfile app = SmallApp(/*cycles_per_access=*/20.0);
  EngineConfig ec;
  ec.seed = 5;
  ec.fixed_point_tolerance = 1e-13;
  ec.max_sim_seconds = 30.0;
  FpMachine m(ec, app, /*threads=*/48);
  RunResult r = m.engine->Run();
  ASSERT_TRUE(r.jobs.back().finished);
  EXPECT_LE(m.engine->last_fixed_point_iterations(), ec.fixed_point_iterations);
  EXPECT_LE(m.engine->fixed_point_iterations_total(),
            m.engine->epochs_run() * ec.fixed_point_iterations);
  EXPECT_GT(m.engine->fixed_point_iterations_total(), 0);
}

TEST(FixedPointTest, NonFiniteUtilizationFailsLoudly) {
  // A NaN utilization must abort the solve, not pass for a fixed point
  // (std::max drops NaN, so max_delta alone would read 0).
  const AppProfile app = SmallApp();
  EngineConfig ec;
  ec.seed = 5;
  ec.utilization_damping = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(
      {
        FpMachine m(ec, app);
        m.engine->Run();
      },
      "isfinite");
}

// Apps shrunk as in paper_regression_test so the whole matrix stays fast.
AppProfile Shrunk(const AppProfile& full, double seconds = 1.2) {
  AppProfile app = full;
  const double scale = seconds / app.nominal_seconds;
  app.nominal_seconds = seconds;
  app.disk_read_mb *= scale;
  return app;
}

// One metric's snapshot: `count` is a counter's value or a histogram's
// observation count, `value` a histogram's sum.
MetricSnapshot Metric(const Observability& obs, const std::string& name) {
  for (const MetricSnapshot& m : obs.metrics().Snapshot()) {
    if (m.name == name) {
      return m;
    }
  }
  ADD_FAILURE() << "metric " << name << " not registered";
  return {};
}

// The parameter is the iteration cap: 23 and 24 put the period-2 exit on
// both parities of the remaining iteration count (stop now / one more).
class FixedPointOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(FixedPointOracleTest, DefaultMatchesFixedCountSolveBitForBit) {
  const int cap = GetParam();
  Observability fast_obs;
  Observability oracle_obs;
  for (const AppProfile& full : AllApps()) {
    const AppProfile app = Shrunk(full);
    for (const PolicyConfig& policy : XenPolicyCandidates()) {
      RunOptions fast;
      fast.engine.fixed_point_iterations = cap;
      fast.obs = &fast_obs;
      RunOptions oracle = fast;
      oracle.engine.fixed_point_tolerance = -1.0;
      oracle.obs = &oracle_obs;
      const StackConfig stack = XenPlusStack(policy);
      ExpectSameResult(RunSingleApp(app, stack, fast), RunSingleApp(app, stack, oracle),
                       app.name + " " + stack.label);
    }
  }

  const int64_t epochs = Metric(oracle_obs, "engine.epochs").count;
  ASSERT_GT(epochs, 0);
  EXPECT_EQ(Metric(fast_obs, "engine.epochs").count, epochs);
  // The oracle runs every iteration of every solve and never exits early.
  EXPECT_EQ(Metric(oracle_obs, "engine.solver.iterations").value,
            static_cast<double>(epochs * cap));
  EXPECT_EQ(Metric(oracle_obs, "engine.solver.exit.cap").count, epochs);
  // The default does strictly less work, through both exact exits.
  EXPECT_LT(Metric(fast_obs, "engine.solver.iterations").value,
            Metric(oracle_obs, "engine.solver.iterations").value);
  const int64_t fixed_point = Metric(fast_obs, "engine.solver.exit.fixed_point").count;
  const int64_t two_cycle = Metric(fast_obs, "engine.solver.exit.two_cycle").count;
  EXPECT_GT(fixed_point, 0);
  EXPECT_GT(two_cycle, 0);
  EXPECT_EQ(fixed_point + two_cycle + Metric(fast_obs, "engine.solver.exit.cap").count, epochs);
  // One residual observation per solve.
  EXPECT_EQ(Metric(fast_obs, "engine.solver.residual").count, epochs);
}

INSTANTIATE_TEST_SUITE_P(Caps, FixedPointOracleTest, ::testing::Values(23, 24));

}  // namespace
}  // namespace xnuma
