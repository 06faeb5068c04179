#include "src/hv/p2m.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/check.h"

namespace xnuma {

namespace {
// Process-wide default representation for newly constructed tables. The
// differential tests flip it at runtime so both representations live in one
// process.
bool g_reference_mode = false;

bool IsPow2(int64_t v) { return v > 0 && (v & (v - 1)) == 0; }

int Log2(int64_t v) {
  int s = 0;
  while ((int64_t{1} << s) < v) {
    ++s;
  }
  return s;
}
}  // namespace

void P2mTable::SetReferenceModeForTest(bool on) { g_reference_mode = on; }

P2mTable::P2mTable(int64_t num_pages) : reference_(g_reference_mode) {
  XNUMA_CHECK(num_pages > 0);
  num_pages_ = num_pages;
  chunks_.resize((num_pages + kChunkPages - 1) >> kChunkShift);
  if (reference_) {
    for (int64_t i = 0; i < static_cast<int64_t>(chunks_.size()); ++i) {
      Chunk& c = EnsureChunk(i);
      c.packed.assign(c.cpages, 0);
    }
    packed_chunk_count_ = static_cast<int64_t>(chunks_.size());
  }
  ConfigureVcpus(1);
}

void P2mTable::ConfigureOrders(PageOrder max_order, int64_t pages_per_2m,
                               int64_t pages_per_1g) {
  XNUMA_CHECK(valid_count_ == 0);
  if (reference_ || max_order == PageOrder::k4K) {
    return;  // the hierarchy stays off; the table is the plain 4K store
  }
  // An order collapses (span <= 1 page at this frame scale) or degenerates
  // (1G no bigger than 2M) rather than erroring: the machine's frame
  // granularity decides which orders physically exist.
  int64_t span_2m = 0;
  int64_t span_1g = 0;
  if (pages_per_2m > 1 && IsPow2(pages_per_2m) && pages_per_2m <= kChunkPages) {
    span_2m = pages_per_2m;
  }
  if (max_order == PageOrder::k1G && pages_per_1g > 1 && IsPow2(pages_per_1g) &&
      pages_per_1g > span_2m) {
    span_1g = pages_per_1g;
  }
  if (span_2m == 0 && span_1g == 0) {
    return;
  }
  sp_[0] = SpLevel{};
  sp_[1] = SpLevel{};
  // Slot arrays are allocated on first install (EnsureSpEntries): a level
  // nothing ever maps at — e.g. the 2M level of a domain placed purely in
  // 1G entries — costs nothing, which MemoryBytes() reports and the bench
  // p2m_order section measures.
  if (span_2m > 0) {
    sp_[0].span = span_2m;
    sp_[0].shift = Log2(span_2m);
  }
  if (span_1g > 0) {
    sp_[1].span = span_1g;
    sp_[1].shift = Log2(span_1g);
  }
  sp_enabled_ = true;
  max_order_ = span_1g > 0 ? PageOrder::k1G : PageOrder::k2M;
}

int64_t P2mTable::OrderSpan(PageOrder order) const {
  switch (order) {
    case PageOrder::k2M:
      return sp_[0].span > 0 ? sp_[0].span : 1;
    case PageOrder::k1G:
      return sp_[1].span > 0 ? sp_[1].span : 1;
    default:
      return 1;
  }
}

int64_t P2mTable::OrderPages(PageOrder order) const {
  const int64_t sp2m = sp_[0].present * sp_[0].span;
  const int64_t sp1g = sp_[1].present * sp_[1].span;
  switch (order) {
    case PageOrder::k2M:
      return sp2m;
    case PageOrder::k1G:
      return sp1g;
    default:
      return valid_count_ - sp2m - sp1g;
  }
}

int64_t P2mTable::SuperpageCount(PageOrder order) const {
  switch (order) {
    case PageOrder::k2M:
      return sp_[0].present;
    case PageOrder::k1G:
      return sp_[1].present;
    default:
      return 0;
  }
}

void P2mTable::CheckRange(Pfn pfn, int64_t count) const {
  XNUMA_CHECK(pfn >= 0 && count > 0 && pfn + count <= num_pages_);
}

int64_t P2mTable::ChunkPages(int64_t chunk_idx) const {
  return std::min(kChunkPages, num_pages_ - (chunk_idx << kChunkShift));
}

P2mTable::Chunk& P2mTable::EnsureChunk(int64_t chunk_idx) {
  std::unique_ptr<Chunk>& slot = chunks_[chunk_idx];
  if (slot == nullptr) {
    slot = std::make_unique<Chunk>();
    slot->cpages = static_cast<int32_t>(ChunkPages(chunk_idx));
  }
  return *slot;
}

int P2mTable::LowerPos(const Chunk& c, int32_t off) {
  const auto& v = c.extents;
  int lo = 0;
  int hi = static_cast<int>(v.size());
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (v[mid].first <= off) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int P2mTable::FindExtent(const Chunk& c, int32_t off) {
  const int idx = LowerPos(c, off) - 1;
  if (idx < 0 || off >= c.extents[idx].end()) {
    return -1;
  }
  return idx;
}

uint64_t P2mTable::SpEntryAt(Pfn pfn, int* level) const {
  for (int l = kNumSpLevels - 1; l >= 0; --l) {
    const SpLevel& s = sp_[l];
    if (s.span == 0 || s.present == 0) {
      continue;
    }
    const uint64_t e = s.entries[pfn >> s.shift];
    if ((e & 1) != 0) {
      if (level != nullptr) {
        *level = l;
      }
      // Adding off << 2 advances the packed mfn without disturbing the
      // present/writable flag bits.
      return e + (static_cast<uint64_t>(pfn & (s.span - 1)) << 2);
    }
  }
  return 0;
}

uint64_t P2mTable::EntryAt(Pfn pfn) const {
  CheckRange(pfn, 1);
  if (sp_enabled_) {
    const uint64_t sp = SpEntryAt(pfn);
    if (sp != 0) {
      return sp;
    }
  }
  const Chunk* c = chunks_[pfn >> kChunkShift].get();
  if (c == nullptr) {
    return 0;
  }
  const int32_t off = static_cast<int32_t>(pfn & (kChunkPages - 1));
  if (!c->packed.empty()) {
    return c->packed[off];
  }
  const int idx = FindExtent(*c, off);
  if (idx < 0) {
    return 0;
  }
  const Extent& e = c->extents[idx];
  return PackEntry(e.mfn() + (off - e.first), e.writable());
}

void P2mTable::RefreshOrderGauges() {
  if (order_gauges_[0] != nullptr) {
    order_gauges_[0]->Set(static_cast<double>(OrderPages(PageOrder::k4K)));
  }
  if (order_gauges_[1] != nullptr) {
    order_gauges_[1]->Set(static_cast<double>(OrderPages(PageOrder::k2M)));
  }
  if (order_gauges_[2] != nullptr) {
    order_gauges_[2]->Set(static_cast<double>(OrderPages(PageOrder::k1G)));
  }
}

void P2mTable::TouchChunk(int64_t chunk_idx, Chunk& c) {
  ++c.gen;
  if (repl_enabled_) {
    InvalidateReplicaChunk(chunk_idx, c.gen);
  }
  if (extent_gauge_ != nullptr) {
    extent_gauge_->Set(static_cast<double>(extent_count_));
  }
  if (sp_enabled_) {
    RefreshOrderGauges();
  }
}

void P2mTable::TouchSp() {
  ++sp_gen_;
  if (repl_enabled_) {
    // The superpage layer changed (install/remove/split/promote/protect):
    // drop its copy from every replica holding a current one, so a split
    // under replication clips cached superpage runs on all replicas.
    for (auto& rp : replicas_) {
      Replica* r = rp.get();
      if (r == nullptr) {
        continue;
      }
      const uint32_t old = r->sp_stamp.load(std::memory_order_relaxed);
      if (old + 1 == sp_gen_) {
        r->sp_stamp.store(kStampEmpty, std::memory_order_relaxed);
        ++repl_invalidations_;
        if (repl_invalidation_metric_ != nullptr) {
          repl_invalidation_metric_->Increment();
        }
      }
    }
  }
  RefreshOrderGauges();
}

// ---- Per-node replication (docs/MODEL.md §18) ----------------------------

void P2mTable::InvalidateReplicaChunk(int64_t chunk_idx, uint32_t new_gen) {
  for (auto& rp : replicas_) {
    Replica* r = rp.get();
    if (r == nullptr) {
      continue;
    }
    // Only a copy that was current (stamped with the generation this
    // mutation just superseded) transitions to invalid; stale and empty
    // copies were already uncounted, so valid_chunks stays exact.
    const uint32_t old = r->stamps[chunk_idx].load(std::memory_order_relaxed);
    if (old == new_gen - 1) {
      r->stamps[chunk_idx].store(kStampEmpty, std::memory_order_relaxed);
      r->valid_chunks.fetch_sub(1, std::memory_order_relaxed);
      ++repl_invalidations_;
      if (repl_invalidation_metric_ != nullptr) {
        repl_invalidation_metric_->Increment();
      }
    }
  }
}

void P2mTable::EnableReplication(int num_nodes, int home_node) {
  XNUMA_CHECK(num_nodes > 0 && home_node >= 0 && home_node < num_nodes);
  repl_enabled_ = true;
  home_node_ = home_node;
  repl_nodes_ = num_nodes;
  replicas_.clear();
  replicas_.resize(num_nodes);
  std::fill(vcpu_nodes_.begin(), vcpu_nodes_.end(), home_node_);
  if (repl_gauge_ != nullptr) {
    repl_gauge_->Set(0.0);
  }
}

void P2mTable::DisableReplication() {
  repl_enabled_ = false;
  repl_nodes_ = 0;
  std::vector<std::unique_ptr<Replica>>().swap(replicas_);
  if (repl_gauge_ != nullptr) {
    repl_gauge_->Set(0.0);
  }
}

P2mTable::Replica& P2mTable::EnsureReplica(int node) {
  XNUMA_CHECK(repl_enabled_ && node >= 0 && node < repl_nodes_);
  std::unique_ptr<Replica>& slot = replicas_[node];
  if (slot == nullptr) {
    slot = std::make_unique<Replica>(static_cast<int64_t>(chunks_.size()));
    for (auto& s : slot->stamps) {
      s.store(kStampEmpty, std::memory_order_relaxed);
    }
    if (repl_gauge_ != nullptr) {
      repl_gauge_->Set(static_cast<double>(replica_count()));
    }
  }
  return *slot;
}

void P2mTable::ConfigureVcpus(int num_vcpus) {
  vcpu_nodes_.assign(std::max(1, num_vcpus), home_node_);
}

void P2mTable::SetVcpuNode(int32_t vcpu, int node) {
  XNUMA_CHECK(node >= 0);
  XNUMA_CHECK(vcpu >= 0 && static_cast<size_t>(vcpu) < vcpu_nodes_.size());
  vcpu_nodes_[vcpu] = node;
  if (repl_enabled_ && node != home_node_ && node < repl_nodes_) {
    EnsureReplica(node);
  }
}

void P2mTable::FillReplica(int node) {
  if (!repl_enabled_ || node == home_node_ || node < 0 || node >= repl_nodes_) {
    return;
  }
  Replica& r = EnsureReplica(node);
  const int64_t n = static_cast<int64_t>(chunks_.size());
  for (int64_t ci = 0; ci < n; ++ci) {
    const Chunk* c = chunks_[ci].get();
    r.stamps[ci].store(c != nullptr ? c->gen : 0, std::memory_order_relaxed);
  }
  r.sp_stamp.store(sp_gen_, std::memory_order_relaxed);
  r.valid_chunks.store(n, std::memory_order_relaxed);
}

void P2mTable::InvalidateReplicas(int node) {
  if (!repl_enabled_ || node < 0 || node >= repl_nodes_) {
    return;
  }
  Replica* r = replicas_[node].get();
  if (r != nullptr) {
    for (auto& s : r->stamps) {
      s.store(kStampEmpty, std::memory_order_relaxed);
    }
    r->sp_stamp.store(kStampEmpty, std::memory_order_relaxed);
    r->valid_chunks.store(0, std::memory_order_relaxed);
  }
  ++repl_invalidations_;
  if (repl_invalidation_metric_ != nullptr) {
    repl_invalidation_metric_->Increment();
  }
}

double P2mTable::ReplicaCoverage(int node) const {
  if (node == home_node_) {
    return 1.0;  // the master table is by definition local
  }
  if (!repl_enabled_ || node < 0 || node >= repl_nodes_) {
    return 0.0;
  }
  const Replica* r = replicas_[node].get();
  if (r == nullptr) {
    return 0.0;
  }
  const double denom =
      static_cast<double>(chunks_.size()) + (sp_enabled_ ? 1.0 : 0.0);
  double num = static_cast<double>(r->valid_chunks.load(std::memory_order_relaxed));
  if (sp_enabled_ && r->sp_stamp.load(std::memory_order_relaxed) == sp_gen_) {
    num += 1.0;
  }
  return std::min(1.0, std::max(0.0, num / denom));
}

void P2mTable::NoteWalks(int64_t local, int64_t remote) {
  repl_local_walks_ += local;
  repl_remote_walks_ += remote;
  if (repl_local_metric_ != nullptr && local > 0) {
    repl_local_metric_->Increment(local);
  }
  if (repl_remote_metric_ != nullptr && remote > 0) {
    repl_remote_metric_->Increment(remote);
  }
}

int64_t P2mTable::replica_count() const {
  int64_t n = 0;
  for (const auto& r : replicas_) {
    n += r != nullptr ? 1 : 0;
  }
  return n;
}

void P2mTable::MaybePack(Chunk& c) {
  if (!reference_ && static_cast<int>(c.extents.size()) > kPackThreshold) {
    PackChunk(c);
  }
}

void P2mTable::PackChunk(Chunk& c) {
  c.packed.assign(c.cpages, 0);
  for (const Extent& e : c.extents) {
    for (int32_t i = 0; i < e.count; ++i) {
      c.packed[e.first + i] = PackEntry(e.mfn() + i, e.writable());
    }
  }
  extent_count_ -= static_cast<int64_t>(c.extents.size());
  c.extents.clear();
  c.extents.shrink_to_fit();
  ++packed_chunk_count_;
}

void P2mTable::MaybeShrink(Chunk& c) {
  // Promotion (and whole-chunk unmap) can empty a chunk's heap without
  // destroying the chunk; release the capacity so MemoryBytes() reflects
  // live state across split/promote cycles instead of high-water marks.
  if (c.extents.empty() && c.extents.capacity() != 0) {
    c.extents.shrink_to_fit();
  }
  if (!reference_ && c.packed.empty() && c.packed.capacity() != 0) {
    c.packed.shrink_to_fit();
  }
}

void P2mTable::InsertExtent(Chunk& c, int32_t off, int32_t count, Mfn mfn,
                            bool writable) {
  auto& v = c.extents;
  const int pos = LowerPos(c, off);
  XNUMA_CHECK(pos == 0 || v[pos - 1].end() <= off);
  XNUMA_CHECK(pos == static_cast<int>(v.size()) || off + count <= v[pos].first);
  const int64_t mfn_w = (static_cast<int64_t>(mfn) << 1) | (writable ? 1 : 0);
  const bool merge_prev = pos > 0 && v[pos - 1].end() == off &&
                          v[pos - 1].mfn_w + int64_t{2} * v[pos - 1].count == mfn_w;
  const bool merge_next = pos < static_cast<int>(v.size()) &&
                          off + count == v[pos].first &&
                          mfn_w + int64_t{2} * count == v[pos].mfn_w;
  if (merge_prev && merge_next) {
    v[pos - 1].count += count + v[pos].count;
    v.erase(v.begin() + pos);
    --extent_count_;
  } else if (merge_prev) {
    v[pos - 1].count += count;
  } else if (merge_next) {
    v[pos].first = off;
    v[pos].count += count;
    v[pos].mfn_w = mfn_w;
  } else {
    v.insert(v.begin() + pos, Extent{off, count, mfn_w});
    ++extent_count_;
  }
  MaybePack(c);
}

void P2mTable::RemovePageFromExtent(Chunk& c, int idx, int32_t off) {
  auto& v = c.extents;
  const Extent e = v[idx];
  if (e.count == 1) {
    v.erase(v.begin() + idx);
    --extent_count_;
  } else if (off == e.first) {
    v[idx].first += 1;
    v[idx].count -= 1;
    v[idx].mfn_w += 2;  // mfn + 1, writable bit preserved
  } else if (off == e.end() - 1) {
    v[idx].count -= 1;
  } else {
    v[idx].count = off - e.first;
    v.insert(v.begin() + idx + 1,
             Extent{off + 1, e.end() - (off + 1),
                    e.mfn_w + int64_t{2} * (off + 1 - e.first)});
    ++extent_count_;
    ++split_count_;
    if (split_metric_ != nullptr) {
      split_metric_->Increment();
    }
    MaybePack(c);
  }
}

int P2mTable::IsolatePage(Chunk& c, int idx, int32_t off) {
  auto& v = c.extents;
  const Extent e = v[idx];
  if (e.count == 1) {
    return idx;
  }
  const int32_t left = off - e.first;
  const int32_t right = e.end() - (off + 1);
  Extent pieces[3];
  int n = 0;
  if (left > 0) {
    pieces[n++] = Extent{e.first, left, e.mfn_w};
  }
  pieces[n++] = Extent{off, 1, e.mfn_w + int64_t{2} * left};
  if (right > 0) {
    pieces[n++] = Extent{off + 1, right, e.mfn_w + int64_t{2} * (left + 1)};
  }
  v[idx] = pieces[0];
  v.insert(v.begin() + idx + 1, pieces + 1, pieces + n);
  extent_count_ += n - 1;
  split_count_ += n - 1;
  if (split_metric_ != nullptr) {
    split_metric_->Increment(n - 1);
  }
  return idx + (left > 0 ? 1 : 0);
}

int P2mTable::TryMergeAt(Chunk& c, int idx) {
  auto& v = c.extents;
  if (idx + 1 < static_cast<int>(v.size()) && v[idx].end() == v[idx + 1].first &&
      v[idx].mfn_w + int64_t{2} * v[idx].count == v[idx + 1].mfn_w) {
    v[idx].count += v[idx + 1].count;
    v.erase(v.begin() + idx + 1);
    --extent_count_;
  }
  if (idx > 0 && v[idx - 1].end() == v[idx].first &&
      v[idx - 1].mfn_w + int64_t{2} * v[idx - 1].count == v[idx].mfn_w) {
    v[idx - 1].count += v[idx].count;
    v.erase(v.begin() + idx);
    --extent_count_;
    return idx - 1;
  }
  return idx;
}

// ---- Superpage store primitives -----------------------------------------

void P2mTable::EnsureSpEntries(SpLevel& s) {
  if (s.entries.empty()) {
    s.entries.assign((num_pages_ + s.span - 1) / s.span, 0);
  }
}

void P2mTable::InstallSp(int level, Pfn first, Mfn mfn, bool writable) {
  SpLevel& s = sp_[level];
  EnsureSpEntries(s);
  const int64_t slot = first >> s.shift;
  XNUMA_CHECK((s.entries[slot] & 1) == 0);
  s.entries[slot] = PackEntry(mfn, writable);
  ++s.present;
  TouchSp();
}

uint64_t P2mTable::RemoveSp(int level, Pfn first) {
  SpLevel& s = sp_[level];
  const int64_t slot = first >> s.shift;
  const uint64_t e = s.entries[slot];
  XNUMA_CHECK((e & 1) != 0);
  s.entries[slot] = 0;
  --s.present;
  TouchSp();
  return e;
}

void P2mTable::MaterializeSpan(Pfn first, int64_t count, Mfn mfn, bool writable) {
  Pfn p = first;
  while (p < first + count) {
    const int64_t ci = p >> kChunkShift;
    Chunk& c = EnsureChunk(ci);
    const int32_t off = static_cast<int32_t>(p & (kChunkPages - 1));
    const int32_t len = static_cast<int32_t>(
        std::min<int64_t>(kChunkPages - off, first + count - p));
    const Mfn m = mfn + (p - first);
    if (!c.packed.empty()) {
      for (int32_t i = 0; i < len; ++i) {
        XNUMA_CHECK(c.packed[off + i] == 0);
        c.packed[off + i] = PackEntry(m + i, writable);
      }
    } else {
      InsertExtent(c, off, len, m, writable);
    }
    TouchChunk(ci, c);
    p += len;
  }
}

void P2mTable::SplitOneLevel(Pfn pfn) {
  if (!sp_enabled_) {
    return;
  }
  for (int l = kNumSpLevels - 1; l >= 0; --l) {
    SpLevel& s = sp_[l];
    if (s.span == 0 || s.present == 0) {
      continue;
    }
    const int64_t slot = pfn >> s.shift;
    const uint64_t e = s.entries[slot];
    if ((e & 1) == 0) {
      continue;
    }
    const Pfn first = slot << s.shift;
    const Mfn mfn = static_cast<Mfn>(e >> 2);
    const bool writable = (e & 2) != 0;
    RemoveSp(l, first);
    if (l == 1 && sp_[0].span > 0) {
      // A 1G entry shatters into its 2M children, not to 4K: only the
      // sub-block a later mutation actually touches descends further.
      SpLevel& s0 = sp_[0];
      EnsureSpEntries(s0);
      for (Pfn p = first; p < first + s.span; p += s0.span) {
        XNUMA_CHECK((s0.entries[p >> s0.shift] & 1) == 0);
        s0.entries[p >> s0.shift] = PackEntry(mfn + (p - first), writable);
        ++s0.present;
      }
      TouchSp();
    } else {
      MaterializeSpan(first, s.span, mfn, writable);
    }
    ++superpage_split_count_;
    if (split_metric_ != nullptr) {
      split_metric_->Increment();
    }
    return;
  }
}

void P2mTable::CheckSpanInvalid(Pfn first, int64_t count) const {
  for (int l = 0; l < kNumSpLevels; ++l) {
    const SpLevel& s = sp_[l];
    if (s.span == 0 || s.present == 0) {
      continue;
    }
    const int64_t lo = first >> s.shift;
    const int64_t hi = (first + count - 1) >> s.shift;
    for (int64_t slot = lo; slot <= hi; ++slot) {
      XNUMA_CHECK((s.entries[slot] & 1) == 0);
    }
  }
  Pfn p = first;
  while (p < first + count) {
    const Run r = ComputeChunkRun(p >> kChunkShift, p);
    XNUMA_CHECK(!r.valid);
    p = r.first + r.count;
  }
}

Pfn P2mTable::NextSuperpageStart(Pfn first, int64_t count) const {
  Pfn best = first + count;
  for (int l = 0; l < kNumSpLevels; ++l) {
    const SpLevel& s = sp_[l];
    if (s.span == 0 || s.present == 0) {
      continue;
    }
    // First slot starting strictly after `first`; the slot covering `first`
    // itself is the caller's to handle.
    for (Pfn q = ((first >> s.shift) + 1) << s.shift; q < best; q += s.span) {
      if ((s.entries[q >> s.shift] & 1) != 0) {
        best = q;
        break;
      }
    }
  }
  return best;
}

// ---- Mapping mutators ----------------------------------------------------

void P2mTable::Map(Pfn pfn, Mfn mfn) {
  CheckRange(pfn, 1);
  XNUMA_CHECK(mfn != kInvalidMfn);
  if (sp_enabled_) {
    XNUMA_CHECK(SpEntryAt(pfn) == 0);  // must be invalid, incl. superpages
  }
  const int64_t ci = pfn >> kChunkShift;
  Chunk& c = EnsureChunk(ci);
  const int32_t off = static_cast<int32_t>(pfn & (kChunkPages - 1));
  if (!c.packed.empty()) {
    XNUMA_CHECK(c.packed[off] == 0);
    c.packed[off] = PackEntry(mfn, true);
  } else {
    InsertExtent(c, off, 1, mfn, true);
  }
  ++valid_count_;
  TouchChunk(ci, c);
}

void P2mTable::MapRange(Pfn pfn, int64_t count, Mfn mfn) {
  CheckRange(pfn, count);
  XNUMA_CHECK(mfn != kInvalidMfn);
  const Pfn end = pfn + count;
  Pfn p = pfn;
  while (p < end) {
    if (sp_enabled_) {
      // Carve the largest aligned order that fits at p.
      bool carved = false;
      for (int l = kNumSpLevels - 1; l >= 0; --l) {
        const SpLevel& s = sp_[l];
        if (s.span == 0 || (p & (s.span - 1)) != 0 || end - p < s.span) {
          continue;
        }
        CheckSpanInvalid(p, s.span);
        valid_count_ += s.span;  // before InstallSp so its gauge refresh is consistent
        InstallSp(l, p, mfn + (p - pfn), true);
        p += s.span;
        carved = true;
        break;
      }
      if (carved) {
        continue;
      }
    }
    const int64_t ci = p >> kChunkShift;
    Chunk& c = EnsureChunk(ci);
    const int32_t off = static_cast<int32_t>(p & (kChunkPages - 1));
    int32_t len = static_cast<int32_t>(std::min<int64_t>(kChunkPages - off, end - p));
    if (sp_enabled_) {
      // Stop at the next boundary where a whole superpage becomes
      // achievable, so the carver above gets its chance there.
      for (int l = kNumSpLevels - 1; l >= 0; --l) {
        const SpLevel& s = sp_[l];
        if (s.span == 0) {
          continue;
        }
        const Pfn next = (p + s.span) & ~(s.span - 1);
        if (next < p + len && end - next >= s.span) {
          len = static_cast<int32_t>(next - p);
        }
      }
      CheckSpanInvalid(p, len);
    }
    const Mfn m = mfn + (p - pfn);
    if (!c.packed.empty()) {
      for (int32_t i = 0; i < len; ++i) {
        XNUMA_CHECK(c.packed[off + i] == 0);
        c.packed[off + i] = PackEntry(m + i, true);
      }
    } else {
      InsertExtent(c, off, len, m, true);
    }
    valid_count_ += len;
    TouchChunk(ci, c);
    p += len;
  }
}

void P2mTable::Remap(Pfn pfn, Mfn new_mfn) {
  CheckRange(pfn, 1);
  XNUMA_CHECK(new_mfn != kInvalidMfn);
  if (sp_enabled_) {
    // Retargeting one page breaks machine contiguity: shatter the covering
    // superpage down to the 4K level (one order per pass).
    while (SpEntryAt(pfn) != 0) {
      SplitOneLevel(pfn);
    }
  }
  const int64_t ci = pfn >> kChunkShift;
  XNUMA_CHECK(chunks_[ci] != nullptr);
  Chunk& c = *chunks_[ci];
  const int32_t off = static_cast<int32_t>(pfn & (kChunkPages - 1));
  if (!c.packed.empty()) {
    uint64_t& e = c.packed[off];
    XNUMA_CHECK((e & 1) != 0);
    e = (static_cast<uint64_t>(new_mfn) << 2) | (e & 3);
  } else {
    int idx = FindExtent(c, off);
    XNUMA_CHECK(idx >= 0);
    idx = IsolatePage(c, idx, off);
    c.extents[idx].mfn_w =
        (static_cast<int64_t>(new_mfn) << 1) | (c.extents[idx].mfn_w & 1);
    TryMergeAt(c, idx);
    MaybePack(c);
  }
  TouchChunk(ci, c);
}

void P2mTable::set_observability(Observability* obs) {
  if (obs == nullptr) {
    remap_count_ = remap_race_count_ = split_metric_ = promote_metric_ = nullptr;
    extent_gauge_ = nullptr;
    order_gauges_[0] = order_gauges_[1] = order_gauges_[2] = nullptr;
    repl_gauge_ = nullptr;
    repl_invalidation_metric_ = repl_local_metric_ = repl_remote_metric_ = nullptr;
    return;
  }
  MetricsRegistry& m = obs->metrics();
  remap_count_ =
      m.RegisterCounter("p2m.remaps", "remaps", "Successful P2M remap commits");
  remap_race_count_ = m.RegisterCounter(
      "p2m.remap_races", "events", "P2M remaps lost to an (injected) commit race");
  split_metric_ = m.RegisterCounter(
      "p2m.splits", "splits",
      "P2M splits: extents split by a per-page mutation plus superpages "
      "shattered one order down");
  promote_metric_ = m.RegisterCounter(
      "p2m.promotions", "promotions",
      "Aligned runs re-coalesced into a 2M/1G superpage entry");
  extent_gauge_ = m.RegisterGauge(
      "p2m.extents", "extents",
      "Live extents in the last-mutated P2M table (extent-mode chunks only)");
  order_gauges_[0] = m.RegisterGauge(
      "p2m.order_pages_4k", "pages",
      "Pages mapped at 4K order in the last-mutated order-enabled P2M table");
  order_gauges_[1] = m.RegisterGauge(
      "p2m.order_pages_2m", "pages",
      "Pages covered by 2M superpage entries in the last-mutated P2M table");
  order_gauges_[2] = m.RegisterGauge(
      "p2m.order_pages_1g", "pages",
      "Pages covered by 1G superpage entries in the last-mutated P2M table");
  repl_gauge_ = m.RegisterGauge(
      "p2m.repl.replicas", "replicas",
      "Live per-node P2M replicas in the last-configured table (home excluded)");
  repl_invalidation_metric_ = m.RegisterCounter(
      "p2m.repl.invalidations", "copies",
      "P2M replica copies dropped by master mutations or wholesale drops");
  repl_local_metric_ = m.RegisterCounter(
      "p2m.repl.local_walks", "walks",
      "Modeled page-walks served by the walking vCPU's local table or replica");
  repl_remote_metric_ = m.RegisterCounter(
      "p2m.repl.remote_walks", "walks",
      "Modeled page-walks that crossed the interconnect to the master table");
}

bool P2mTable::TryRemap(Pfn pfn, Mfn new_mfn) {
  XNUMA_CHECK(IsValid(pfn));
  if (injector_ != nullptr && injector_->FireP2mRemapFailure()) {
    if (remap_race_count_ != nullptr) {
      remap_race_count_->Increment();
    }
    return false;  // injected commit race: the entry keeps its old target
  }
  Remap(pfn, new_mfn);
  if (remap_count_ != nullptr) {
    remap_count_->Increment();
  }
  return true;
}

Mfn P2mTable::Unmap(Pfn pfn) {
  CheckRange(pfn, 1);
  if (sp_enabled_) {
    while (SpEntryAt(pfn) != 0) {
      SplitOneLevel(pfn);
    }
  }
  const int64_t ci = pfn >> kChunkShift;
  XNUMA_CHECK(chunks_[ci] != nullptr);
  Chunk& c = *chunks_[ci];
  const int32_t off = static_cast<int32_t>(pfn & (kChunkPages - 1));
  Mfn old;
  if (!c.packed.empty()) {
    uint64_t& e = c.packed[off];
    XNUMA_CHECK((e & 1) != 0);
    old = static_cast<Mfn>(e >> 2);
    e = 0;
  } else {
    const int idx = FindExtent(c, off);
    XNUMA_CHECK(idx >= 0);
    old = c.extents[idx].mfn() + (off - c.extents[idx].first);
    RemovePageFromExtent(c, idx, off);
  }
  --valid_count_;
  TouchChunk(ci, c);
  return old;
}

void P2mTable::RemoveSpan(Chunk& c, int32_t off, int32_t len) {
  auto& v = c.extents;
  int idx = FindExtent(c, off);
  XNUMA_CHECK(idx >= 0);
  int32_t cur = off;
  const int32_t end = off + len;
  while (cur < end) {
    XNUMA_CHECK(idx < static_cast<int>(v.size()));
    const Extent e = v[idx];
    XNUMA_CHECK(e.first <= cur && cur < e.end());  // span fully valid
    const int32_t take_end = std::min(e.end(), end);
    const int32_t left = cur - e.first;
    const int32_t right = e.end() - take_end;
    if (left == 0 && right == 0) {
      v.erase(v.begin() + idx);
      --extent_count_;
    } else if (left > 0 && right > 0) {
      v[idx].count = left;
      v.insert(v.begin() + idx + 1,
               Extent{take_end, right, e.mfn_w + int64_t{2} * (take_end - e.first)});
      ++extent_count_;
      ++split_count_;
      if (split_metric_ != nullptr) {
        split_metric_->Increment();
      }
      idx += 2;
    } else if (left > 0) {
      v[idx].count = left;
      idx += 1;
    } else {  // right > 0
      v[idx].first = take_end;
      v[idx].count = right;
      v[idx].mfn_w = e.mfn_w + int64_t{2} * (take_end - e.first);
    }
    cur = take_end;
  }
  MaybePack(c);
}

void P2mTable::UnmapChunkSpan(int64_t chunk_idx, int32_t off, int32_t len) {
  XNUMA_CHECK(chunks_[chunk_idx] != nullptr);
  Chunk& c = *chunks_[chunk_idx];
  if (off == 0 && len == c.cpages) {
    // Whole chunk: verify full validity, then reset the representation.
    if (!c.packed.empty()) {
      for (int32_t i = 0; i < len; ++i) {
        XNUMA_CHECK((c.packed[i] & 1) != 0);
      }
      if (reference_) {
        std::fill(c.packed.begin(), c.packed.end(), 0);
      } else {
        c.packed.clear();
        c.packed.shrink_to_fit();
        --packed_chunk_count_;
      }
    } else {
      int64_t covered = 0;
      for (const Extent& e : c.extents) {
        covered += e.count;
      }
      XNUMA_CHECK(covered == len);
      extent_count_ -= static_cast<int64_t>(c.extents.size());
      c.extents.clear();
      c.extents.shrink_to_fit();
    }
  } else if (!c.packed.empty()) {
    for (int32_t i = 0; i < len; ++i) {
      XNUMA_CHECK((c.packed[off + i] & 1) != 0);
      c.packed[off + i] = 0;
    }
  } else {
    RemoveSpan(c, off, len);
  }
  valid_count_ -= len;
  TouchChunk(chunk_idx, c);
}

void P2mTable::UnmapRange(Pfn pfn, int64_t count) {
  CheckRange(pfn, count);
  const Pfn end = pfn + count;
  Pfn p = pfn;
  while (p < end) {
    if (sp_enabled_) {
      int level = -1;
      if (SpEntryAt(p, &level) != 0) {
        const SpLevel& s = sp_[level];
        const Pfn sp_first = (p >> s.shift) << s.shift;
        if (sp_first >= pfn && sp_first + s.span <= end) {
          // The superpage lies wholly inside the range: drop it in place.
          valid_count_ -= s.span;  // before RemoveSp so its gauge refresh is consistent
          RemoveSp(level, sp_first);
          p = sp_first + s.span;
        } else {
          // Partial overlap: shatter one order and reprocess.
          SplitOneLevel(p);
        }
        continue;
      }
    }
    int32_t len = static_cast<int32_t>(
        std::min<int64_t>(kChunkPages - (p & (kChunkPages - 1)), end - p));
    if (sp_enabled_) {
      const Pfn sp_next = NextSuperpageStart(p, len);
      len = static_cast<int32_t>(sp_next - p);
    }
    UnmapChunkSpan(p >> kChunkShift, static_cast<int32_t>(p & (kChunkPages - 1)),
                   len);
    p += len;
  }
}

void P2mTable::WriteProtect(Pfn pfn) {
  CheckRange(pfn, 1);
  if (sp_enabled_) {
    const uint64_t sp = SpEntryAt(pfn);
    if (sp != 0) {
      if ((sp & 2) == 0) {
        return;  // already protected; no state change, no split
      }
      while (SpEntryAt(pfn) != 0) {
        SplitOneLevel(pfn);
      }
    }
  }
  const int64_t ci = pfn >> kChunkShift;
  XNUMA_CHECK(chunks_[ci] != nullptr);
  Chunk& c = *chunks_[ci];
  const int32_t off = static_cast<int32_t>(pfn & (kChunkPages - 1));
  if (!c.packed.empty()) {
    uint64_t& e = c.packed[off];
    XNUMA_CHECK((e & 1) != 0);
    e &= ~uint64_t{2};
  } else {
    int idx = FindExtent(c, off);
    XNUMA_CHECK(idx >= 0);
    if (!c.extents[idx].writable()) {
      return;  // already protected; no state change
    }
    idx = IsolatePage(c, idx, off);
    c.extents[idx].mfn_w &= ~int64_t{1};
    TryMergeAt(c, idx);
    MaybePack(c);
  }
  TouchChunk(ci, c);
}

void P2mTable::WriteUnprotect(Pfn pfn) {
  CheckRange(pfn, 1);
  if (sp_enabled_) {
    const uint64_t sp = SpEntryAt(pfn);
    if (sp != 0) {
      if ((sp & 2) != 0) {
        return;  // already writable; no state change, no split
      }
      while (SpEntryAt(pfn) != 0) {
        SplitOneLevel(pfn);
      }
    }
  }
  const int64_t ci = pfn >> kChunkShift;
  XNUMA_CHECK(chunks_[ci] != nullptr);
  Chunk& c = *chunks_[ci];
  const int32_t off = static_cast<int32_t>(pfn & (kChunkPages - 1));
  if (!c.packed.empty()) {
    uint64_t& e = c.packed[off];
    XNUMA_CHECK((e & 1) != 0);
    e |= 2;
  } else {
    int idx = FindExtent(c, off);
    XNUMA_CHECK(idx >= 0);
    if (c.extents[idx].writable()) {
      return;  // already writable; no state change
    }
    idx = IsolatePage(c, idx, off);
    c.extents[idx].mfn_w |= 1;
    TryMergeAt(c, idx);
    MaybePack(c);
  }
  TouchChunk(ci, c);
}

void P2mTable::SetWritableSpan(Chunk& c, int32_t off, int32_t len, bool writable) {
  if (!c.packed.empty()) {
    for (int32_t i = 0; i < len; ++i) {
      uint64_t& e = c.packed[off + i];
      XNUMA_CHECK((e & 1) != 0);
      e = writable ? (e | 2) : (e & ~uint64_t{2});
    }
    return;
  }
  auto& v = c.extents;
  int idx = FindExtent(c, off);
  XNUMA_CHECK(idx >= 0);
  if (v[idx].first < off) {
    // Split off the head so the span starts on an extent boundary.
    const Extent e = v[idx];
    v[idx].count = off - e.first;
    v.insert(v.begin() + idx + 1,
             Extent{off, e.end() - off, e.mfn_w + int64_t{2} * (off - e.first)});
    ++extent_count_;
    ++split_count_;
    if (split_metric_ != nullptr) {
      split_metric_->Increment();
    }
    idx += 1;
  }
  const int32_t end = off + len;
  int32_t cur = off;
  int i = idx;
  while (cur < end) {
    XNUMA_CHECK(i < static_cast<int>(v.size()));
    XNUMA_CHECK(v[i].first == cur);  // span fully valid
    if (v[i].end() > end) {
      // Split off the tail past the span.
      const Extent e = v[i];
      v[i].count = end - e.first;
      v.insert(v.begin() + i + 1,
               Extent{end, e.end() - end, e.mfn_w + int64_t{2} * (end - e.first)});
      ++extent_count_;
      ++split_count_;
      if (split_metric_ != nullptr) {
        split_metric_->Increment();
      }
    }
    v[i].mfn_w = (v[i].mfn_w & ~int64_t{1}) | (writable ? 1 : 0);
    cur = v[i].end();
    i += 1;
  }
  // Merge sweep: the flip can make the span's extents compatible with each
  // other and with both boundary neighbours.
  int j = std::max(0, idx - 1);
  while (j + 1 < static_cast<int>(v.size()) && j <= i) {
    if (v[j].end() == v[j + 1].first &&
        v[j].mfn_w + int64_t{2} * v[j].count == v[j + 1].mfn_w) {
      v[j].count += v[j + 1].count;
      v.erase(v.begin() + j + 1);
      --extent_count_;
      --i;
    } else {
      ++j;
    }
  }
  MaybePack(c);
}

void P2mTable::WriteProtectRange(Pfn pfn, int64_t count) {
  CheckRange(pfn, count);
  const Pfn end = pfn + count;
  Pfn p = pfn;
  while (p < end) {
    if (sp_enabled_) {
      int level = -1;
      if (SpEntryAt(p, &level) != 0) {
        SpLevel& s = sp_[level];
        const Pfn sp_first = (p >> s.shift) << s.shift;
        if (sp_first >= pfn && sp_first + s.span <= end) {
          // Whole superpage inside the range: flip the bit in place.
          uint64_t& e = s.entries[sp_first >> s.shift];
          if ((e & 2) != 0) {
            e &= ~uint64_t{2};
            TouchSp();
          }
          p = sp_first + s.span;
        } else {
          SplitOneLevel(p);
        }
        continue;
      }
    }
    const int64_t ci = p >> kChunkShift;
    XNUMA_CHECK(chunks_[ci] != nullptr);
    Chunk& c = *chunks_[ci];
    const int32_t off = static_cast<int32_t>(p & (kChunkPages - 1));
    int32_t len = static_cast<int32_t>(
        std::min<int64_t>(kChunkPages - off, end - p));
    if (sp_enabled_) {
      len = static_cast<int32_t>(NextSuperpageStart(p, len) - p);
    }
    SetWritableSpan(c, off, len, false);
    TouchChunk(ci, c);
    p += len;
  }
}

void P2mTable::WriteUnprotectRange(Pfn pfn, int64_t count) {
  CheckRange(pfn, count);
  const Pfn end = pfn + count;
  Pfn p = pfn;
  while (p < end) {
    if (sp_enabled_) {
      int level = -1;
      if (SpEntryAt(p, &level) != 0) {
        SpLevel& s = sp_[level];
        const Pfn sp_first = (p >> s.shift) << s.shift;
        if (sp_first >= pfn && sp_first + s.span <= end) {
          uint64_t& e = s.entries[sp_first >> s.shift];
          if ((e & 2) == 0) {
            e |= 2;
            TouchSp();
          }
          p = sp_first + s.span;
        } else {
          SplitOneLevel(p);
        }
        continue;
      }
    }
    const int64_t ci = p >> kChunkShift;
    XNUMA_CHECK(chunks_[ci] != nullptr);
    Chunk& c = *chunks_[ci];
    const int32_t off = static_cast<int32_t>(p & (kChunkPages - 1));
    int32_t len = static_cast<int32_t>(
        std::min<int64_t>(kChunkPages - off, end - p));
    if (sp_enabled_) {
      len = static_cast<int32_t>(NextSuperpageStart(p, len) - p);
    }
    SetWritableSpan(c, off, len, true);
    TouchChunk(ci, c);
    p += len;
  }
}

// ---- Promotion -----------------------------------------------------------

bool P2mTable::TryPromote(Pfn first, PageOrder order) {
  if (!sp_enabled_) {
    return false;
  }
  const int level = order == PageOrder::k1G ? 1 : (order == PageOrder::k2M ? 0 : -1);
  if (level < 0 || sp_[level].span == 0) {
    return false;
  }
  const SpLevel& s = sp_[level];
  if (first < 0 || (first & (s.span - 1)) != 0 || first + s.span > num_pages_) {
    return false;
  }
  if (!s.entries.empty() && (s.entries[first >> s.shift] & 1) != 0) {
    return false;  // already a superpage of this order
  }
  if (level == 0 && sp_[1].span > 0 && !sp_[1].entries.empty() &&
      (sp_[1].entries[first >> sp_[1].shift] & 1) != 0) {
    return false;  // covered by a larger order
  }
  // Verify: the whole span must be valid, machine-contiguous from the base,
  // and uniformly writable/read-only. Machine alignment of the base mfn is
  // deliberately NOT required (MODEL.md §14).
  Mfn base_mfn = kInvalidMfn;
  bool writable = false;
  int8_t kind = 0;
  int64_t id = 0;
  Pfn p = first;
  while (p < first + s.span) {
    const Run r = ResolveRun(p, &kind, &id);
    if (!r.valid) {
      return false;
    }
    const Mfn mfn_at_p = r.mfn + (p - r.first);
    if (p == first) {
      base_mfn = mfn_at_p;
      writable = r.writable;
    } else if (r.writable != writable || mfn_at_p != base_mfn + (p - first)) {
      return false;
    }
    p = std::min(r.first + r.count, first + s.span);
  }
  // Commit: remove every constituent mapping (a pure representation
  // deletion — the pages stay logically mapped), then install the
  // superpage entry. Net valid_count_ is unchanged.
  p = first;
  while (p < first + s.span) {
    const Run r = ResolveRun(p, &kind, &id);
    const Pfn take_end = std::min(r.first + r.count, first + s.span);
    if (kind >= 1) {
      RemoveSp(kind - 1, r.first);
    } else {
      Chunk& c = *chunks_[id];
      const int32_t off = static_cast<int32_t>(p & (kChunkPages - 1));
      const int32_t len = static_cast<int32_t>(take_end - p);
      if (!c.packed.empty()) {
        for (int32_t i = 0; i < len; ++i) {
          c.packed[off + i] = 0;
        }
        bool any = false;
        for (const uint64_t e : c.packed) {
          if (e != 0) {
            any = true;
            break;
          }
        }
        if (!any) {
          c.packed.clear();
          c.packed.shrink_to_fit();
          --packed_chunk_count_;
        }
      } else {
        RemoveSpan(c, off, len);
      }
      TouchChunk(id, c);
      MaybeShrink(c);
    }
    p = take_end;
  }
  InstallSp(level, first, base_mfn, writable);
  ++promotion_count_;
  if (promote_metric_ != nullptr) {
    promote_metric_->Increment();
  }
  return true;
}

// ---- Run lookup ----------------------------------------------------------

P2mTable::Run P2mTable::ComputeChunkRun(int64_t chunk_idx, Pfn pfn) const {
  const Chunk* cp = chunks_[chunk_idx].get();
  const Pfn base = chunk_idx << kChunkShift;
  const int32_t off = static_cast<int32_t>(pfn - base);
  const int32_t cpages = static_cast<int32_t>(ChunkPages(chunk_idx));
  Run r;
  if (cp == nullptr) {
    return Run{base, cpages, kInvalidMfn, false, false};
  }
  const Chunk& c = *cp;
  if (!c.packed.empty()) {
    const uint64_t e = c.packed[off];
    int32_t lo = off;
    int32_t hi = off + 1;
    if ((e & 1) == 0) {
      while (lo > 0 && c.packed[lo - 1] == 0) {
        --lo;
      }
      while (hi < cpages && c.packed[hi] == 0) {
        ++hi;
      }
      r = Run{base + lo, hi - lo, kInvalidMfn, false, false};
    } else {
      // A valid neighbour extends the run when its entry is exactly one
      // frame away with identical flag bits (entry arithmetic: +4 == +1 mfn).
      while (lo > 0 && c.packed[lo - 1] + 4 == c.packed[lo]) {
        --lo;
      }
      while (hi < cpages && c.packed[hi] == c.packed[hi - 1] + 4) {
        ++hi;
      }
      const uint64_t first = c.packed[lo];
      r = Run{base + lo, hi - lo, static_cast<Mfn>(first >> 2), true,
              (first & 2) != 0};
    }
  } else {
    const int idx = FindExtent(c, off);
    if (idx >= 0) {
      const Extent& e = c.extents[idx];
      r = Run{base + e.first, e.count, e.mfn(), true, e.writable()};
    } else {
      const int pos = LowerPos(c, off);
      const int32_t lo = pos == 0 ? 0 : c.extents[pos - 1].end();
      const int32_t hi = pos == static_cast<int>(c.extents.size())
                             ? cpages
                             : c.extents[pos].first;
      r = Run{base + lo, hi - lo, kInvalidMfn, false, false};
    }
  }
  return r;
}

void P2mTable::ClipInvalidRun(Pfn pfn, Run* r) const {
  // A superpage install does not touch the chunks beneath it, so a
  // chunk-derived invalid run may span pages a superpage actually maps.
  // Shrink it to the superpage-free window around pfn. (Valid chunk runs
  // can never overlap a superpage — CheckSpanInvalid guards installs.)
  Pfn lo = r->first;
  Pfn hi = r->first + r->count;
  for (int l = 0; l < kNumSpLevels; ++l) {
    const SpLevel& s = sp_[l];
    if (s.span == 0 || s.present == 0) {
      continue;
    }
    for (Pfn q = ((pfn >> s.shift) + 1) << s.shift; q < hi; q += s.span) {
      if ((s.entries[q >> s.shift] & 1) != 0) {
        hi = q;
        break;
      }
    }
    Pfn q = (pfn >> s.shift) << s.shift;
    while (q > 0 && q > lo) {
      q -= s.span;
      if (q + s.span <= lo) {
        break;
      }
      if ((s.entries[q >> s.shift] & 1) != 0) {
        lo = q + s.span;
        break;
      }
    }
  }
  r->first = lo;
  r->count = hi - lo;
}

P2mTable::Run P2mTable::ResolveRun(Pfn pfn, int8_t* kind, int64_t* id) const {
  if (sp_enabled_) {
    for (int l = kNumSpLevels - 1; l >= 0; --l) {
      const SpLevel& s = sp_[l];
      if (s.span == 0 || s.present == 0) {
        continue;
      }
      const int64_t slot = pfn >> s.shift;
      const uint64_t e = s.entries[slot];
      if ((e & 1) != 0) {
        *kind = static_cast<int8_t>(l + 1);
        *id = slot;
        return Run{slot << s.shift, s.span, static_cast<Mfn>(e >> 2), true,
                   (e & 2) != 0};
      }
    }
  }
  const int64_t ci = pfn >> kChunkShift;
  *kind = 0;
  *id = ci;
  Run r = ComputeChunkRun(ci, pfn);
  if (sp_enabled_ && !r.valid) {
    ClipInvalidRun(pfn, &r);
  }
  return r;
}

P2mTable::Run P2mTable::LookupRun(Pfn pfn, int32_t vcpu) const {
  CheckRange(pfn, 1);
  int8_t kind = 0;
  int64_t id = 0;
  const Run run = ResolveRun(pfn, &kind, &id);
  if (!repl_enabled_) {
    return run;
  }
  const size_t v = vcpu >= 0 ? static_cast<size_t>(vcpu) : 0;
  XNUMA_CHECK(v < vcpu_nodes_.size());
  const int walk_node = vcpu_nodes_[v];
  if (walk_node == home_node_) {
    return run;
  }
  // The walk read the master table; re-copy what it resolved into the
  // walking node's replica (Mitosis' walk-driven fill). Only an already-
  // instantiated replica is stamped — a const lookup never allocates.
  Replica* r = replicas_[walk_node].get();
  if (r != nullptr) {
    if (kind == 0) {
      const Chunk* c = chunks_[id].get();
      const uint32_t gen = c != nullptr ? c->gen : 0;
      if (r->stamps[id].exchange(gen, std::memory_order_relaxed) != gen) {
        r->valid_chunks.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      r->sp_stamp.store(sp_gen_, std::memory_order_relaxed);
    }
  }
  return run;
}

// ---- Accounting ----------------------------------------------------------

int64_t P2mTable::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(*this));
  bytes += static_cast<int64_t>(chunks_.capacity() * sizeof(chunks_[0]));
  for (const std::unique_ptr<Chunk>& cp : chunks_) {
    if (cp == nullptr) {
      continue;
    }
    bytes += static_cast<int64_t>(sizeof(Chunk));
    bytes += static_cast<int64_t>(cp->extents.capacity() * sizeof(Extent));
    bytes += static_cast<int64_t>(cp->packed.capacity() * sizeof(uint64_t));
  }
  for (int l = 0; l < kNumSpLevels; ++l) {
    bytes += static_cast<int64_t>(sp_[l].entries.capacity() * sizeof(uint64_t));
  }
  for (const auto& rp : replicas_) {
    if (rp == nullptr) {
      continue;
    }
    bytes += static_cast<int64_t>(sizeof(Replica));
    bytes += static_cast<int64_t>(rp->stamps.capacity() *
                                  sizeof(std::atomic<uint32_t>));
  }
  return bytes;
}

void P2mTable::AuditCounters() const {
  int64_t valid = 0;
  int64_t extents = 0;
  int64_t packed_chunks = 0;
  for (int64_t ci = 0; ci < static_cast<int64_t>(chunks_.size()); ++ci) {
    const Chunk* cp = chunks_[ci].get();
    if (cp == nullptr) {
      continue;
    }
    const Chunk& c = *cp;
    XNUMA_CHECK(c.cpages == static_cast<int32_t>(ChunkPages(ci)));
    if (!c.packed.empty()) {
      XNUMA_CHECK(c.extents.empty());
      XNUMA_CHECK(static_cast<int64_t>(c.packed.size()) == c.cpages);
      ++packed_chunks;
      for (const uint64_t e : c.packed) {
        if ((e & 1) != 0) {
          ++valid;
        }
      }
    } else {
      int32_t prev_end = 0;
      for (const Extent& e : c.extents) {
        XNUMA_CHECK(e.count > 0);
        XNUMA_CHECK(e.first >= prev_end);
        XNUMA_CHECK(e.end() <= c.cpages);
        prev_end = e.end();
        valid += e.count;
        ++extents;
      }
    }
  }
  for (int l = 0; l < kNumSpLevels; ++l) {
    const SpLevel& s = sp_[l];
    if (s.span == 0) {
      continue;
    }
    int64_t present = 0;
    for (int64_t slot = 0; slot < static_cast<int64_t>(s.entries.size()); ++slot) {
      if ((s.entries[slot] & 1) == 0) {
        continue;
      }
      ++present;
      const Pfn first = slot << s.shift;
      XNUMA_CHECK(first + s.span <= num_pages_);
      // No chunk-level mapping — and no smaller superpage — may overlap a
      // live superpage.
      if (l == 1 && sp_[0].span > 0 && sp_[0].present > 0) {
        for (Pfn p = first; p < first + s.span; p += sp_[0].span) {
          XNUMA_CHECK((sp_[0].entries[p >> sp_[0].shift] & 1) == 0);
        }
      }
      Pfn p = first;
      while (p < first + s.span) {
        const Run r = ComputeChunkRun(p >> kChunkShift, p);
        XNUMA_CHECK(!r.valid);
        p = r.first + r.count;
      }
      valid += s.span;
    }
    XNUMA_CHECK(present == s.present);
  }
  XNUMA_CHECK(valid == valid_count_);
  XNUMA_CHECK(extents == extent_count_);
  XNUMA_CHECK(packed_chunks == packed_chunk_count_);
  // Each replica's transition-maintained valid_chunks must equal a recount
  // of stamps that match their chunk's current generation.
  for (const auto& rp : replicas_) {
    const Replica* r = rp.get();
    if (r == nullptr) {
      continue;
    }
    int64_t current = 0;
    for (int64_t ci = 0; ci < static_cast<int64_t>(chunks_.size()); ++ci) {
      const Chunk* c = chunks_[ci].get();
      const uint32_t gen = c != nullptr ? c->gen : 0;
      if (r->stamps[ci].load(std::memory_order_relaxed) == gen) {
        ++current;
      }
    }
    XNUMA_CHECK(current == r->valid_chunks.load(std::memory_order_relaxed));
  }
}

}  // namespace xnuma
