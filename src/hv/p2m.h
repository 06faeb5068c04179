// The hypervisor page table (P2M): maps the physical pages of a virtual
// machine to machine pages (§2.1). In other hypervisors this is the EPT/NPT
// second-stage table; Xen calls the levels "physical" and "machine" and so
// do we.
//
// An *invalid* entry makes any guest access trap into the hypervisor — the
// mechanism behind the first-touch policy (§4.2). A *write-protected* entry
// traps stores only — the mechanism behind safe page migration (§4.1).
//
// Representation. Xen maps memory in superpage extents (§3.3), and so does
// this table, at two layers:
//
// * **Page-order hierarchy** (docs/MODEL.md §14). A table configured with
//   ConfigureOrders() carries first-class 2M/1G superpage entries in two
//   direct-indexed arrays, one packed word per aligned slot. A superpage
//   covers its whole span with one entry: MapRange carves aligned,
//   machine-contiguous spans into the largest order that fits; per-page
//   mutations (Unmap/Remap/WriteProtect — the migration write path) split
//   the covering superpage lazily into the next order down, shattering only
//   the sub-block actually touched; TryPromote() re-coalesces a uniformly
//   mapped aligned span back up (the background promotion daemon's entry
//   point, src/hv/promotion.h). Whole-span range operations (protect/unmap)
//   act on superpage entries in place, without splitting. The default —
//   max order 4K — disables the hierarchy entirely and is bit-identical to
//   a table without it.
// * **Extent-compressed 4K level**. The pfn space is divided into 512-page
//   chunks, allocated lazily (a chunk fully covered by superpages costs one
//   null pointer), and each chunk is stored either as a sorted vector of
//   extents — runs of contiguous (pfn, mfn) mappings sharing one writable
//   bit, split and merged by the per-page mutators — or, once per-page churn
//   has shredded the runs past kPackThreshold extents, as packed 8-byte
//   entries with the valid/writable flags folded into the spare low bits of
//   the Mfn. Extents never cross a chunk boundary.
//
// The per-page API (Map/Unmap/Lookup/...) is a thin compatibility shim over
// this store; range operations (MapRange/UnmapRange/...) and the run lookup
// (LookupRun) amortise one descent over whole extents, so a run-by-run walk
// costs one descent per run and one superpage run covers a whole 2M/1G span.

#ifndef XENNUMA_SRC_HV_P2M_H_
#define XENNUMA_SRC_HV_P2M_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/fault/fault.h"

namespace xnuma {

class P2mTable {
 public:
  // A maximal run of pages sharing one validity/writability state. For a
  // valid run, page `first + i` maps to `mfn + i`; for an invalid run, the
  // whole run is unmapped and `mfn` is kInvalidMfn. 4K-level runs never
  // cross a 512-page chunk boundary; a superpage run covers its whole
  // aligned 2M/1G span. Callers iterate:
  //   for (Pfn p = lo; p < hi; p += run.count) { run = LookupRun(p); ... }
  struct Run {
    Pfn first = kInvalidPfn;
    int64_t count = 0;
    Mfn mfn = kInvalidMfn;  // machine frame backing `first` when valid
    bool valid = false;
    bool writable = false;
  };

  explicit P2mTable(int64_t num_pages);

  int64_t num_pages() const { return num_pages_; }

  // ---- Page-order hierarchy ---------------------------------------------

  // Enables first-class superpage orders up to `max_order`. Must be called
  // before any page is mapped. `pages_per_2m` / `pages_per_1g` are the
  // simulated-page spans of the two orders at the machine's frame scale
  // (FrameAllocator::FramesPerOrder); an order whose span collapses to one
  // page (or, for 1G, to the 2M span) is disabled — at the default
  // 4 MiB/frame scale only the 1G order (256 pages) exists. The default
  // max order k4K — and reference mode — leave the hierarchy off and the
  // table bit-identical to the pre-order representation.
  void ConfigureOrders(PageOrder max_order, int64_t pages_per_2m, int64_t pages_per_1g);
  PageOrder max_order() const { return max_order_; }
  // Span, in pages, of the given order at this table's configuration
  // (1 for k4K and for disabled orders).
  int64_t OrderSpan(PageOrder order) const;

  // Pages currently mapped at the given order (the order histogram: k4K
  // counts chunk-extent/packed pages, k2M/k1G count superpage coverage).
  int64_t OrderPages(PageOrder order) const;
  // Live superpage entries of the given order (0 for k4K).
  int64_t SuperpageCount(PageOrder order) const;

  // Re-coalesces the aligned `order`-sized span starting at `first` into one
  // superpage entry. Succeeds only when the whole span is mapped
  // machine-contiguously with one writable state and is not already covered
  // by a superpage of this or a larger order. Pure representation change:
  // every Lookup answers identically afterwards. Returns false (table
  // unchanged) otherwise.
  bool TryPromote(Pfn first, PageOrder order);

  // Splits the superpage covering `pfn` (if any) one order down: a 1G entry
  // becomes 2M children (or chunk extents when the 2M order is disabled), a
  // 2M entry becomes chunk extents. Per-page mutators call this lazily, so
  // only the sub-block actually touched ever shatters. No-op when `pfn` is
  // not superpage-mapped. Pure representation change.
  void SplitOneLevel(Pfn pfn);

  int64_t promotion_count() const { return promotion_count_; }
  // Superpage entries split one order down (demand splits + range splits).
  int64_t superpage_split_count() const { return superpage_split_count_; }

  // ---- Entry lookups ----------------------------------------------------

  bool IsValid(Pfn pfn) const { return (EntryAt(pfn) & 1) != 0; }
  bool IsWritable(Pfn pfn) const { return (EntryAt(pfn) & 3) == 3; }
  Mfn Lookup(Pfn pfn) const {
    const uint64_t e = EntryAt(pfn);
    return (e & 1) != 0 ? static_cast<Mfn>(e >> 2) : kInvalidMfn;
  }

  // Resolves the maximal run containing `pfn` (see Run) by walking the
  // master table. `vcpu` is the walking vCPU's index (negative ids walk as
  // vCPU 0); with replication on, a walk from a node other than the home
  // node re-stamps what it resolved on that node's replica. The returned run
  // is a snapshot: any mutation of its chunk (or, for superpage runs, any
  // superpage mutation) invalidates it.
  Run LookupRun(Pfn pfn, int32_t vcpu = 0) const;

  // Installs a mapping; the entry must currently be invalid.
  void Map(Pfn pfn, Mfn mfn);

  // Maps `count` pages [pfn, pfn+count) to the contiguous machine frames
  // [mfn, mfn+count); every entry must currently be invalid. Equivalent to
  // count Map() calls but inserts whole extents per chunk and, when orders
  // are enabled, carves aligned sub-spans into native 2M/1G superpages.
  void MapRange(Pfn pfn, int64_t count, Mfn mfn);

  // Atomically replaces the target of a valid entry (migration commit).
  // Splits a covering superpage down to the 4K level first.
  void Remap(Pfn pfn, Mfn new_mfn);

  // Remap that can lose the commit race injected through the fault layer:
  // returns false (entry unchanged) when the injector fires, true after a
  // successful remap. Identical to Remap() when no injector is attached.
  bool TryRemap(Pfn pfn, Mfn new_mfn);

  // Optional fault injection for TryRemap. nullptr detaches.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Optional metrics (p2m.remaps, p2m.remap_races, p2m.extents, p2m.splits,
  // p2m.promotions, p2m.order_pages_{4k,2m,1g},
  // p2m.repl.{replicas,invalidations,local_walks,remote_walks}). nullptr
  // detaches.
  void set_observability(Observability* obs);

  // Drops a valid mapping; returns the machine frame that backed it.
  Mfn Unmap(Pfn pfn);

  // Drops `count` valid mappings [pfn, pfn+count); every entry must
  // currently be valid. Superpages wholly inside the range are dropped in
  // place; partial overlaps split first. Does not return the backing frames
  // — rollback callers know the base from the matching MapRange.
  void UnmapRange(Pfn pfn, int64_t count);

  void WriteProtect(Pfn pfn);
  void WriteUnprotect(Pfn pfn);

  // Range forms of the protection flips; every entry must be valid.
  // Superpages wholly inside the range flip in place without splitting.
  void WriteProtectRange(Pfn pfn, int64_t count);
  void WriteUnprotectRange(Pfn pfn, int64_t count);

  int64_t valid_count() const { return valid_count_; }

  // ---- Per-node replication (docs/MODEL.md §18) ------------------------
  //
  // Mitosis-style replication of the translation structure itself: each
  // node may hold a lazily instantiated replica of the table, so a vCPU
  // walking from its own node walks locally. A replica is a per-chunk
  // array of generation stamps — stamp == the chunk's current generation
  // means the replica holds a current copy of that chunk's translations.
  // Every master mutator (per-page ops, range ops, splits, promotions)
  // invalidates the touched chunk's copy on every replica (write-fault-
  // driven copy invalidation); a walk from a node lazily re-copies the
  // chunk it resolved (LookupRun stamps the walking node's replica).
  // With replication disabled every query below degenerates to the
  // single-home answer and the table is bit-identical to a build without
  // this feature.

  // Declares which node holds the master table. Called at domain creation
  // regardless of replication so ReplicaCoverage() prices walks correctly
  // even for unreplicated domains. Default: node 0.
  void SetHomeNode(int node) { home_node_ = node; }
  int home_node() const { return home_node_; }

  // Sizes the vCPU→node table for `num_vcpus` vCPUs, every one on the home
  // node. Called at domain creation; a freshly constructed table has one
  // vCPU.
  void ConfigureVcpus(int num_vcpus);

  // Turns replication on for a machine with `num_nodes` nodes. Replicas
  // are not allocated here — SetVcpuNode/FillReplica instantiate a node's
  // replica the first time a vCPU actually walks from it.
  void EnableReplication(int num_nodes, int home_node);
  // Drops every replica and all replication state (domain teardown).
  void DisableReplication();
  bool replication_enabled() const { return repl_enabled_; }

  // Records that `vcpu` now runs on `node`: its walks stamp that node's
  // replica from here on, and the node's replica is instantiated if it does
  // not exist yet.
  void SetVcpuNode(int32_t vcpu, int node);

  // Copies the whole master table into `node`'s replica (instantiating it
  // if needed): every chunk stamp becomes current. Models the walk-driven
  // fill converging; the engine calls it once a thread has walked from a
  // node for a full epoch. No-op for the home node or when replication is
  // off.
  void FillReplica(int node);

  // Invalidates `node`'s replica wholesale: every chunk and superpage stamp
  // goes empty, so the next walk from that node is remote and re-stamps
  // what it resolves (docs/MODEL.md §18).
  void InvalidateReplicas(int node);

  // Fraction of the translation structure a walk from `node` finds
  // locally: 1.0 on the home node, 0.0 when the node holds no replica,
  // else the share of chunk (and superpage) copies that are current.
  double ReplicaCoverage(int node) const;

  // Accounts `local` always-local and `remote` cross-node page-walks
  // (engine epoch accounting; feeds p2m.repl.{local,remote}_walks).
  void NoteWalks(int64_t local, int64_t remote);

  // Live replicas (home node excluded — the master is not a replica).
  int64_t replica_count() const;
  // Replica copy invalidations: per-chunk copies dropped by a master
  // mutation, superpage-layer drops, and wholesale InvalidateReplicas.
  int64_t replica_invalidations() const { return repl_invalidations_; }
  int64_t local_walks() const { return repl_local_walks_; }
  int64_t remote_walks() const { return repl_remote_walks_; }

  // ---- Introspection ---------------------------------------------------

  // Number of extents across all extent-mode chunks (packed chunks and
  // superpage entries count 0).
  int64_t extent_count() const { return extent_count_; }
  // Extents created by splitting an existing extent (Unmap/Remap/
  // WriteProtect landing mid-run).
  int64_t split_count() const { return split_count_; }
  // Chunks currently in packed per-page representation.
  int64_t packed_chunk_count() const { return packed_chunk_count_; }
  // Approximate heap footprint of the mapping store (chunk headers +
  // extent vectors + packed entries + superpage arrays + replica stamps),
  // for the sub-linear-growth evidence in the bench.
  int64_t MemoryBytes() const;

  // Recomputes every derived counter (valid_count, extent_count,
  // packed_chunk_count, superpage presence, order histogram) from the raw
  // representation and XNUMA_CHECKs each against the incrementally
  // maintained value; also checks that no chunk-level mapping overlaps a
  // superpage. O(table); tests call it directly and the promotion daemon
  // calls it when XNUMA_P2M_AUDIT is set (the placement-cache audit
  // pattern, XNUMA_VERIFY_PLACEMENT_CACHE).
  void AuditCounters() const;

  // ---- Reference mode --------------------------------------------------

  // Forces tables constructed afterwards into the per-page reference
  // representation: every chunk packed from birth, no extent compression,
  // no superpage orders. The differential test runs each policy under both
  // representations and requires bit-identical results.
  static void SetReferenceModeForTest(bool on);
  bool reference_mode() const { return reference_; }

  static constexpr int kChunkShift = 9;
  static constexpr int64_t kChunkPages = int64_t{1} << kChunkShift;
  // Past this many extents a chunk has degenerated into per-page noise
  // (first-touch's LIFO free list against the allocator's ascending rover
  // produces anti-contiguous singletons); packed entries are smaller and
  // O(1) to mutate.
  static constexpr int kPackThreshold = 64;

 private:
  // One run of contiguous mappings inside a chunk. `first`/`count` are
  // chunk-local page offsets; `mfn_w` packs (mfn << 1) | writable.
  struct Extent {
    int32_t first;
    int32_t count;
    int64_t mfn_w;

    Mfn mfn() const { return static_cast<Mfn>(mfn_w >> 1); }
    bool writable() const { return (mfn_w & 1) != 0; }
    int32_t end() const { return first + count; }
  };

  struct Chunk {
    // Extent mode: sorted, non-overlapping, maximal under merging. Packed
    // mode: `packed` non-empty, one 8-byte entry per page,
    // (mfn << 2) | (writable << 1) | valid, 0 == invalid; `extents` empty.
    std::vector<Extent> extents;
    std::vector<uint64_t> packed;
    // Bumped on every mutation; replica stamps snapshot it.
    uint32_t gen = 0;
    // Pages this chunk spans (kChunkPages except a trailing partial chunk).
    int32_t cpages = 0;
  };

  // One superpage order: a direct-indexed array of packed words,
  // (mfn << 2) | (writable << 1) | present, 0 == no superpage here. Index i
  // covers pages [i << shift, (i + 1) << shift).
  struct SpLevel {
    int64_t span = 0;  // pages per superpage; 0 = order disabled
    int shift = 0;
    std::vector<uint64_t> entries;
    int64_t present = 0;
  };
  static constexpr int kNumSpLevels = 2;  // [0] = 2M, [1] = 1G

  // Per-node copy of the translation structure. `stamps[ci]` equal to
  // chunk ci's current generation means this node holds a current copy of
  // that chunk (kStampEmpty = never copied / invalidated); `sp_stamp`
  // plays the same role for the superpage layer against sp_gen_. The
  // counters are atomic because walks re-stamp their node's replica from
  // a const lookup while InvalidateReplicas may run concurrently (the
  // `repl`-labelled race test); the engine itself is single-threaded per
  // table.
  struct Replica {
    explicit Replica(int64_t num_chunks) : stamps(num_chunks) {}
    std::vector<std::atomic<uint32_t>> stamps;
    std::atomic<uint32_t> sp_stamp{kStampEmpty};
    std::atomic<int64_t> valid_chunks{0};
  };
  static constexpr uint32_t kStampEmpty = 0xFFFFFFFFu;

  static uint64_t PackEntry(Mfn mfn, bool writable) {
    return (static_cast<uint64_t>(mfn) << 2) | (writable ? 2u : 0u) | 1u;
  }

  void CheckRange(Pfn pfn, int64_t count) const;
  uint64_t EntryAt(Pfn pfn) const;
  // Superpage entry covering `pfn` adjusted to the page (0 when none);
  // `level` receives the covering order's level index.
  uint64_t SpEntryAt(Pfn pfn, int* level = nullptr) const;
  Chunk& EnsureChunk(int64_t chunk_idx);
  // Number of extents whose `first` is <= off (binary search).
  static int LowerPos(const Chunk& c, int32_t off);
  // Index of the extent containing `off`, or -1.
  static int FindExtent(const Chunk& c, int32_t off);
  // Inserts [off, off+count) -> mfn, merging with compatible neighbours;
  // XNUMA_CHECKs that the span is currently invalid.
  void InsertExtent(Chunk& c, int32_t off, int32_t count, Mfn mfn, bool writable);
  // Removes page `off` from extents[idx] (trim or split).
  void RemovePageFromExtent(Chunk& c, int idx, int32_t off);
  // Splits extents[idx] so that `off` is a single-page extent; returns its
  // index.
  int IsolatePage(Chunk& c, int idx, int32_t off);
  // Merges extents[idx] with mergeable neighbours; returns its new index.
  int TryMergeAt(Chunk& c, int idx);
  // Removes the fully-valid span [off, off+len) from an extent-mode chunk.
  void RemoveSpan(Chunk& c, int32_t off, int32_t len);
  // Unmaps the fully-valid span [off, off+len) of one chunk (whole-chunk
  // resets drop the representation entirely); adjusts valid_count_.
  void UnmapChunkSpan(int64_t chunk_idx, int32_t off, int32_t len);
  // Flips the writable bit on the fully-valid span [off, off+len).
  void SetWritableSpan(Chunk& c, int32_t off, int32_t len, bool writable);
  // Converts the chunk to packed per-page entries.
  void PackChunk(Chunk& c);
  void MaybePack(Chunk& c);
  // Releases the heap of a chunk that promotion emptied, so MemoryBytes()
  // stays consistent across split/promote cycles.
  void MaybeShrink(Chunk& c);
  void TouchChunk(int64_t chunk_idx, Chunk& c);
  // Bumps the superpage generation (staling every replica's superpage
  // stamp) and refreshes the order-histogram gauges.
  void TouchSp();
  // Instantiates `node`'s replica (stamps all-empty) if absent.
  Replica& EnsureReplica(int node);
  // Drops the chunk's copy from every replica that holds a current one
  // (the write-fault-driven invalidation; `new_gen` is the generation the
  // mutation just installed).
  void InvalidateReplicaChunk(int64_t chunk_idx, uint32_t new_gen);
  int64_t ChunkPages(int64_t chunk_idx) const;
  Run ComputeChunkRun(int64_t chunk_idx, Pfn pfn) const;
  // Shrinks an invalid chunk run so it does not overlap superpage coverage
  // (superpage installs do not touch chunk state, so chunk-derived invalid
  // runs may span pages a superpage maps).
  void ClipInvalidRun(Pfn pfn, Run* r) const;
  // Resolves the run containing `pfn`; reports which store produced it
  // (kind 0 = chunk, 1/2 = superpage level) and the store index.
  Run ResolveRun(Pfn pfn, int8_t* kind, int64_t* id) const;
  // XNUMA_CHECKs that [first, first+count) is wholly invalid (chunks and
  // superpages). Costs one run walk, not one check per page.
  void CheckSpanInvalid(Pfn first, int64_t count) const;
  // Allocates a level's slot array on first install; a level nothing maps
  // at stays an empty vector, which every read path treats as all-absent.
  void EnsureSpEntries(SpLevel& s);
  // Installs a superpage entry; the span must be invalid. Adjusts no page
  // counters (callers own valid_count_).
  void InstallSp(int level, Pfn first, Mfn mfn, bool writable);
  // Drops a superpage entry; returns its packed word. Adjusts no counters
  // beyond presence.
  uint64_t RemoveSp(int level, Pfn first);
  // Materialises [first, first+count) -> mfn as chunk extents (split
  // fallout). valid_count_ is untouched: the pages stay mapped throughout.
  void MaterializeSpan(Pfn first, int64_t count, Mfn mfn, bool writable);
  // First pfn in [first, first+count) covered by a present superpage, or
  // first+count when none — clips chunk-level range walks.
  Pfn NextSuperpageStart(Pfn first, int64_t count) const;
  void RefreshOrderGauges();

  int64_t num_pages_ = 0;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  int64_t valid_count_ = 0;
  int64_t extent_count_ = 0;
  int64_t split_count_ = 0;
  int64_t packed_chunk_count_ = 0;
  bool reference_ = false;

  // Page-order hierarchy state (all inert while sp_enabled_ is false).
  bool sp_enabled_ = false;
  PageOrder max_order_ = PageOrder::k4K;
  SpLevel sp_[kNumSpLevels];
  uint32_t sp_gen_ = 0;
  int64_t promotion_count_ = 0;
  int64_t superpage_split_count_ = 0;

  // Replication state (all inert while repl_enabled_ is false). replicas_
  // is mutable because a const walk re-stamps the walking node's replica.
  bool repl_enabled_ = false;
  int home_node_ = 0;
  int repl_nodes_ = 0;
  mutable std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<int> vcpu_nodes_;  // node each vCPU walks from
  int64_t repl_invalidations_ = 0;
  int64_t repl_local_walks_ = 0;
  int64_t repl_remote_walks_ = 0;

  FaultInjector* injector_ = nullptr;
  Counter* remap_count_ = nullptr;
  Counter* remap_race_count_ = nullptr;
  Counter* split_metric_ = nullptr;
  Counter* promote_metric_ = nullptr;
  Gauge* extent_gauge_ = nullptr;
  Gauge* order_gauges_[3] = {nullptr, nullptr, nullptr};  // 4K, 2M, 1G pages
  Gauge* repl_gauge_ = nullptr;
  Counter* repl_invalidation_metric_ = nullptr;
  Counter* repl_local_metric_ = nullptr;
  Counter* repl_remote_metric_ = nullptr;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_HV_P2M_H_
