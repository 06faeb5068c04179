// Fragmentation-aware available-space calculation (Gudkov et al.,
// PAPERS.md): the true admission capacity of a NUMA node is not its free
// frame count but the shape of its free extents — how many aligned 2M/1G
// blocks survive, how large the largest run is, how shattered the rest.
//
// Two implementations of the same quantity, on purpose:
//  * ComputeNodeSpace returns the allocator's memoized summary
//    (FrameAllocator::Space): one pass over the node's free-extent cursor,
//    O(bitmap words), rerun only when an allocation, free or hole changed
//    that node since the last call. The production path: the admission
//    solver and the fragmentation gauge share the one memo per allocator.
//  * RecountNodeSpace probes every frame through IsAllocated — O(frames),
//    an independent brute-force recount the property tests (and the
//    brute-force reference solver) compare against.
// docs/MODEL.md §17 pins that the two agree exactly on every reachable
// allocator state.

#ifndef XENNUMA_SRC_ADMISSION_AVAILABLE_SPACE_H_
#define XENNUMA_SRC_ADMISSION_AVAILABLE_SPACE_H_

#include <cstdint>

#include "src/common/types.h"
#include "src/mm/frame_allocator.h"

namespace xnuma {

// Fast path: the allocator's per-node memo (NodeSpace and
// AlignedBlocksInExtent are defined with it, in frame_allocator.h).
NodeSpace ComputeNodeSpace(const FrameAllocator& frames, NodeId node);

// Brute force: per-frame IsAllocated probes, independent of the extent
// cursor and of the allocator's cached free counts.
NodeSpace RecountNodeSpace(const FrameAllocator& frames, NodeId node);

// Fragmentation index of one node: 1 - largest_extent / free_frames, and 0
// for a node with no free memory (nothing left to fragment). 0 = one
// perfect run, ->1 = shattered into many small extents.
double FragIndex(const NodeSpace& space);

// Machine fragmentation: mean FragIndex over all nodes (the `churn.
// fragmentation` gauge; the churn soak test pins a hand-computed fixture).
double MachineFragmentation(const FrameAllocator& frames);

}  // namespace xnuma

#endif  // XENNUMA_SRC_ADMISSION_AVAILABLE_SPACE_H_
