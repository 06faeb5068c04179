#include "src/autopolicy/walk_affinity.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"

namespace xnuma {

WalkAffinityOrchestrator::WalkAffinityOrchestrator(Hypervisor& hv,
                                                   WalkAffinityConfig config)
    : hv_(&hv), config_(config) {}

int WalkAffinityOrchestrator::Tick(DomainId domain) {
  DomainState& state = domains_[domain];
  ++state.stats.decisions;
  ++state.windows_since_move;
  if (state.windows_since_move <= config_.dwell_windows) {
    return 0;
  }
  if (!hv_->DomainAlive(domain)) {
    return 0;
  }
  Domain& dom = hv_->domain(domain);
  if (dom.vcpus().empty()) {
    return 0;
  }
  const Topology& topo = hv_->topology();
  const P2mTable& p2m = dom.p2m();

  // Rank nodes by replica coverage once per window; every stranded vCPU
  // shares the same candidate list.
  const int num_nodes = topo.num_nodes();
  std::vector<double> coverage(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) {
    coverage[n] = p2m.ReplicaCoverage(n);
  }

  // Stranded vCPUs, worst coverage first, so the move budget goes to the
  // walks that are paying the most.
  std::vector<VcpuId> stranded;
  for (const VcpuDesc& v : dom.vcpus()) {
    if (v.pinned_cpu == kInvalidCpu) {
      continue;
    }
    if (coverage[topo.node_of_cpu(v.pinned_cpu)] < config_.coverage_low) {
      stranded.push_back(v.id);
    }
  }
  if (stranded.empty()) {
    return 0;
  }
  std::sort(stranded.begin(), stranded.end(), [&](VcpuId a, VcpuId b) {
    const double ca = coverage[topo.node_of_cpu(dom.vcpus()[a].pinned_cpu)];
    const double cb = coverage[topo.node_of_cpu(dom.vcpus()[b].pinned_cpu)];
    return ca != cb ? ca < cb : a < b;
  });

  int moved = 0;
  for (VcpuId v : stranded) {
    if (moved >= config_.max_moves_per_window) {
      break;
    }
    const CpuId from_cpu = dom.vcpus()[v].pinned_cpu;
    const NodeId from_node = topo.node_of_cpu(from_cpu);
    // Best target: the covered node whose least-loaded CPU has the most
    // spare capacity; coverage must beat the current node by the margin.
    NodeId best_node = kInvalidNode;
    CpuId best_cpu = kInvalidCpu;
    int best_load = 0;
    for (NodeId n = 0; n < num_nodes; ++n) {
      if (n == from_node ||
          coverage[n] < coverage[from_node] + config_.coverage_margin) {
        continue;
      }
      CpuId cand_cpu = kInvalidCpu;
      int cand_load = 0;
      for (CpuId cpu : topo.node(n).cpus) {
        const int load = hv_->VcpusOnCpu(cpu);
        if (cand_cpu == kInvalidCpu || load < cand_load) {
          cand_cpu = cpu;
          cand_load = load;
        }
      }
      if (cand_cpu == kInvalidCpu) {
        continue;
      }
      // Never trade a remote walk for a worse CPU share than the vCPU has
      // now: a move that lands on a more crowded pCPU slows compute by more
      // than the walk it localizes.
      if (cand_load > hv_->VcpusOnCpu(from_cpu)) {
        continue;
      }
      const bool better =
          best_node == kInvalidNode || coverage[n] > coverage[best_node] ||
          (coverage[n] == coverage[best_node] && cand_load < best_load);
      if (better) {
        best_node = n;
        best_cpu = cand_cpu;
        best_load = cand_load;
      }
    }
    if (best_node == kInvalidNode) {
      continue;
    }
    dom.mutable_vcpus()[v].pinned_cpu = best_cpu;
    hv_->NoteVcpuMoved(domain, v, best_cpu);
    ++moved;
    ++state.stats.vcpu_moves;
  }
  if (moved > 0) {
    state.windows_since_move = 0;
  }
  return moved;
}

const WalkAffinityStats& WalkAffinityOrchestrator::stats(DomainId domain) {
  return domains_[domain].stats;
}

}  // namespace xnuma
