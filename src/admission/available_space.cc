#include "src/admission/available_space.h"

#include <algorithm>

#include "src/common/check.h"

namespace xnuma {

NodeSpace ComputeNodeSpace(const FrameAllocator& frames, NodeId node) {
  return frames.Space(node);
}

NodeSpace RecountNodeSpace(const FrameAllocator& frames, NodeId node) {
  NodeSpace space;
  space.node = node;
  const Mfn base = frames.node_base(node);
  const Mfn end = base + frames.frames_per_node(node);
  // Free frames, extent count and largest run: one linear per-frame scan.
  int64_t run = 0;
  for (Mfn mfn = base; mfn < end; ++mfn) {
    if (frames.IsAllocated(mfn)) {
      run = 0;
      continue;
    }
    ++space.free_frames;
    if (run == 0) {
      ++space.free_extents;
    }
    ++run;
    space.largest_extent = std::max(space.largest_extent, run);
  }
  // Aligned blocks per order: probe every aligned span start independently.
  for (const PageOrder order : {PageOrder::k2M, PageOrder::k1G}) {
    const int64_t span = frames.FramesPerOrder(order);
    int64_t blocks = 0;
    if (span == 1) {
      blocks = space.free_frames;
    } else {
      for (Mfn start = ((base + span - 1) / span) * span; start + span <= end;
           start += span) {
        bool all_free = true;
        for (Mfn mfn = start; mfn < start + span; ++mfn) {
          if (frames.IsAllocated(mfn)) {
            all_free = false;
            break;
          }
        }
        if (all_free) {
          ++blocks;
        }
      }
    }
    (order == PageOrder::k2M ? space.blocks_2m : space.blocks_1g) = blocks;
  }
  return space;
}

double FragIndex(const NodeSpace& space) {
  if (space.free_frames == 0) {
    return 0.0;
  }
  return 1.0 - static_cast<double>(space.largest_extent) /
                   static_cast<double>(space.free_frames);
}

double MachineFragmentation(const FrameAllocator& frames) {
  const int nodes = frames.num_nodes();
  double total = 0.0;
  for (NodeId n = 0; n < nodes; ++n) {
    total += FragIndex(ComputeNodeSpace(frames, n));
  }
  return total / static_cast<double>(nodes);
}

}  // namespace xnuma
