// Shared matchers for the execution-layer test battery: field-by-field
// equality over RunOutcome matrices, doubles compared by bit pattern.
//
// Exact compares are the point — the parallel runner (threads) and the
// serial loop promise *bit-identical* outcomes, not approximately-equal ones
// (docs/MODEL.md §12), and so does the solver's exact early exit against its
// fixed-count oracle. Used by parallel_runner_test and fixed_point_test so
// both pin the same definition of "same".

#ifndef XENNUMA_TESTS_OUTCOME_MATCHERS_H_
#define XENNUMA_TESTS_OUTCOME_MATCHERS_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/experiment_runner.h"

namespace xnuma {

// Exact double compare by bit pattern, so 0.0 vs -0.0 counts as a change.
inline void ExpectSameDouble(double a, double b, const char* field, const std::string& where) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << where << " " << field << ": " << a << " vs " << b;
}

// Field-by-field equality over everything JobResult carries.
inline void ExpectSameResult(const JobResult& a, const JobResult& b,
                             const std::string& where) {
  EXPECT_EQ(a.app, b.app) << where;
  EXPECT_EQ(a.domain, b.domain) << where;
  EXPECT_EQ(a.finished, b.finished) << where;
  ExpectSameDouble(a.completion_seconds, b.completion_seconds, "completion_seconds", where);
  ExpectSameDouble(a.init_seconds, b.init_seconds, "init_seconds", where);
  ExpectSameDouble(a.compute_seconds, b.compute_seconds, "compute_seconds", where);
  ExpectSameDouble(a.imbalance_pct, b.imbalance_pct, "imbalance_pct", where);
  ExpectSameDouble(a.interconnect_pct, b.interconnect_pct, "interconnect_pct", where);
  ExpectSameDouble(a.avg_mc_util_pct, b.avg_mc_util_pct, "avg_mc_util_pct", where);
  ExpectSameDouble(a.avg_latency_cycles, b.avg_latency_cycles, "avg_latency_cycles", where);
  ExpectSameDouble(a.observed_disk_mb_per_s, b.observed_disk_mb_per_s,
                   "observed_disk_mb_per_s", where);
  ExpectSameDouble(a.observed_ctx_switches_per_s, b.observed_ctx_switches_per_s,
                   "observed_ctx_switches_per_s", where);
  EXPECT_EQ(a.hv_page_faults, b.hv_page_faults) << where;
  EXPECT_EQ(a.carrefour_migrations, b.carrefour_migrations) << where;
  EXPECT_EQ(a.final_policy, b.final_policy) << where;
  EXPECT_EQ(a.policy_switches, b.policy_switches) << where;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << where;
  EXPECT_EQ(a.faults_recovered, b.faults_recovered) << where;
  EXPECT_EQ(a.faults_aborted, b.faults_aborted) << where;
  EXPECT_EQ(a.local_walks, b.local_walks) << where;
  EXPECT_EQ(a.remote_walks, b.remote_walks) << where;
}

inline void ExpectSameOutcomes(const std::vector<RunOutcome>& a,
                               const std::vector<RunOutcome>& b,
                               const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string at = where + " [" + a[i].label + "]";
    EXPECT_EQ(a[i].label, b[i].label) << at;
    EXPECT_EQ(a[i].ok, b[i].ok) << at;
    EXPECT_EQ(a[i].error, b[i].error) << at;
    ExpectSameResult(a[i].result, b[i].result, at);
  }
}

}  // namespace xnuma

#endif  // XENNUMA_TESTS_OUTCOME_MATCHERS_H_
