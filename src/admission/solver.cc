#include "src/admission/solver.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "src/common/check.h"

namespace xnuma {

const char* ToString(AdmissionDecision decision) {
  switch (decision) {
    case AdmissionDecision::kAdmit:
      return "admit";
    case AdmissionDecision::kDefer:
      return "defer";
    case AdmissionDecision::kReject:
      return "reject";
  }
  return "?";
}

bool operator==(const PlacementScore& a, const PlacementScore& b) {
  return a.neg_nodes_used == b.neg_nodes_used && a.free_cpu_total == b.free_cpu_total &&
         a.free_frame_total == b.free_frame_total &&
         a.neg_max_distance == b.neg_max_distance &&
         a.neg_balance_spread == b.neg_balance_spread &&
         a.contiguity_blocks == b.contiguity_blocks;
}

bool Better(const PlacementScore& a, const PlacementScore& b) {
  if (a.neg_nodes_used != b.neg_nodes_used) {
    return a.neg_nodes_used > b.neg_nodes_used;
  }
  if (a.free_cpu_total != b.free_cpu_total) {
    return a.free_cpu_total > b.free_cpu_total;
  }
  if (a.free_frame_total != b.free_frame_total) {
    return a.free_frame_total > b.free_frame_total;
  }
  if (a.neg_max_distance != b.neg_max_distance) {
    return a.neg_max_distance > b.neg_max_distance;
  }
  if (a.neg_balance_spread != b.neg_balance_spread) {
    return a.neg_balance_spread > b.neg_balance_spread;
  }
  return a.contiguity_blocks > b.contiguity_blocks;
}

PlacementScore ScoreCandidate(const Topology& topo, const std::vector<NodeId>& nodes,
                              const std::vector<NodeSpace>& spaces,
                              const std::vector<int>& free_cpus_per_node,
                              PageOrder preferred_order) {
  PlacementScore score;
  score.neg_nodes_used = -static_cast<int32_t>(nodes.size());
  int64_t min_frames = 0;
  int64_t max_frames = 0;
  int max_distance = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const NodeSpace& space = spaces[nodes[i]];
    score.free_cpu_total += free_cpus_per_node[nodes[i]];
    score.free_frame_total += space.free_frames;
    switch (preferred_order) {
      case PageOrder::k4K:
        score.contiguity_blocks += space.free_frames;
        break;
      case PageOrder::k2M:
        score.contiguity_blocks += space.blocks_2m;
        break;
      case PageOrder::k1G:
        score.contiguity_blocks += space.blocks_1g;
        break;
    }
    min_frames = i == 0 ? space.free_frames : std::min(min_frames, space.free_frames);
    max_frames = std::max(max_frames, space.free_frames);
    for (size_t j = 0; j < i; ++j) {
      max_distance = std::max(max_distance, topo.Distance(nodes[j], nodes[i]));
    }
  }
  score.neg_max_distance = -max_distance;
  score.neg_balance_spread = -(max_frames - min_frames);
  return score;
}

AdmissionSolver::AdmissionSolver(const Topology& topo, const FrameAllocator& frames,
                                 Config config)
    : topo_(&topo), frames_(&frames), config_(config) {}

AdmissionResult AdmissionSolver::Solve(const AdmissionRequest& request,
                                       const std::vector<int>& free_cpus_per_node) const {
  const int n = topo_->num_nodes();
  XNUMA_CHECK(static_cast<int>(free_cpus_per_node.size()) == n);
  XNUMA_CHECK(request.num_vcpus > 0);
  XNUMA_CHECK(request.memory_pages >= 0);

  AdmissionResult result;
  // Permanent infeasibility: even an empty machine could not hold the
  // request. Everything else is at worst a defer — frames and pCPUs free up
  // as other domains churn away.
  if (request.memory_pages > frames_->total_frames() ||
      request.num_vcpus > topo_->num_cpus()) {
    result.decision = AdmissionDecision::kReject;
    return result;
  }

  // One memoized summary per node covers every candidate — the Gudkov
  // efficiency argument: per-subset evaluation is O(k) sums over these
  // summaries, never a frame scan, and only nodes that changed since the
  // last request are rescanned.
  std::vector<NodeSpace>& spaces = spaces_;
  spaces.resize(n);
  for (NodeId node = 0; node < n; ++node) {
    spaces[node] = ComputeNodeSpace(*frames_, node);
  }

  const bool beam = n > config_.max_nodes_exhaustive;
  std::vector<NodeId>& by_load = by_load_;
  by_load.resize(n);
  std::iota(by_load.begin(), by_load.end(), 0);
  if (beam) {
    // Legacy load order: most free pCPUs, then most free frames, then id.
    std::sort(by_load.begin(), by_load.end(), [&](NodeId a, NodeId b) {
      if (free_cpus_per_node[a] != free_cpus_per_node[b]) {
        return free_cpus_per_node[a] > free_cpus_per_node[b];
      }
      if (spaces[a].free_frames != spaces[b].free_frames) {
        return spaces[a].free_frames > spaces[b].free_frames;
      }
      return a < b;
    });
  }

  bool found = false;
  std::vector<NodeId> best_nodes;
  PlacementScore best_score;
  std::vector<NodeId>& candidate = candidate_;
  std::vector<NodeId>& pool = pool_;
  for (int k = 1; k <= n && !found; ++k) {
    // Candidate pool: every node when exhaustive; the (k + beam_window)
    // least loaded when bounding latency on very wide machines.
    if (beam) {
      pool.assign(by_load.begin(),
                  by_load.begin() + std::min<int>(n, k + config_.beam_window));
      std::sort(pool.begin(), pool.end());
    } else {
      pool.assign(by_load.begin(), by_load.end());
    }
    const int p = static_cast<int>(pool.size());
    for (uint32_t mask = 1; mask < (uint32_t{1} << p); ++mask) {
      if (std::popcount(mask) != k) {
        continue;
      }
      candidate.clear();
      int cpu_total = 0;
      int64_t frame_total = 0;
      for (int i = 0; i < p; ++i) {
        if (mask & (uint32_t{1} << i)) {
          candidate.push_back(pool[i]);
          cpu_total += free_cpus_per_node[pool[i]];
          frame_total += spaces[pool[i]].free_frames;
        }
      }
      ++result.candidates_evaluated;
      if (cpu_total < request.num_vcpus || frame_total < request.memory_pages) {
        continue;
      }
      const PlacementScore score = ScoreCandidate(*topo_, candidate, spaces,
                                                  free_cpus_per_node,
                                                  request.preferred_order);
      if (!found || Better(score, best_score) ||
          (score == best_score && candidate < best_nodes)) {
        best_score = score;
        best_nodes = candidate;
        found = true;
      }
    }
  }

  if (found) {
    result.decision = AdmissionDecision::kAdmit;
    result.nodes = std::move(best_nodes);
    result.score = best_score;
  } else {
    result.decision = AdmissionDecision::kDefer;
  }
  return result;
}

}  // namespace xnuma
