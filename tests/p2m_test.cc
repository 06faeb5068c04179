#include "src/hv/p2m.h"

#include <gtest/gtest.h>

namespace xnuma {
namespace {

TEST(P2mTest, StartsInvalid) {
  P2mTable p2m(16);
  EXPECT_EQ(p2m.num_pages(), 16);
  EXPECT_EQ(p2m.valid_count(), 0);
  for (Pfn pfn = 0; pfn < 16; ++pfn) {
    EXPECT_FALSE(p2m.IsValid(pfn));
    EXPECT_EQ(p2m.Lookup(pfn), kInvalidMfn);
  }
}

TEST(P2mTest, MapLookupUnmap) {
  P2mTable p2m(8);
  p2m.Map(3, 100);
  EXPECT_TRUE(p2m.IsValid(3));
  EXPECT_TRUE(p2m.IsWritable(3));
  EXPECT_EQ(p2m.Lookup(3), 100);
  EXPECT_EQ(p2m.valid_count(), 1);

  EXPECT_EQ(p2m.Unmap(3), 100);
  EXPECT_FALSE(p2m.IsValid(3));
  EXPECT_EQ(p2m.valid_count(), 0);
}

TEST(P2mTest, RemapChangesTarget) {
  P2mTable p2m(8);
  p2m.Map(1, 10);
  p2m.Remap(1, 20);
  EXPECT_EQ(p2m.Lookup(1), 20);
  EXPECT_EQ(p2m.valid_count(), 1);
}

TEST(P2mTest, WriteProtectionCycle) {
  P2mTable p2m(8);
  p2m.Map(2, 5);
  EXPECT_TRUE(p2m.IsWritable(2));
  p2m.WriteProtect(2);
  EXPECT_FALSE(p2m.IsWritable(2));
  EXPECT_TRUE(p2m.IsValid(2));
  p2m.WriteUnprotect(2);
  EXPECT_TRUE(p2m.IsWritable(2));
}

TEST(P2mTest, UnmapResetsWritability) {
  P2mTable p2m(4);
  p2m.Map(0, 7);
  p2m.WriteProtect(0);
  p2m.Unmap(0);
  p2m.Map(0, 9);
  EXPECT_TRUE(p2m.IsWritable(0));
}

TEST(P2mTest, MapRangeCoversSpanWithOneExtent) {
  P2mTable p2m(2048);
  p2m.MapRange(10, 500, 1000);
  EXPECT_EQ(p2m.valid_count(), 500);
  for (Pfn pfn = 10; pfn < 510; ++pfn) {
    EXPECT_EQ(p2m.Lookup(pfn), 1000 + (pfn - 10));
  }
  EXPECT_FALSE(p2m.IsValid(9));
  EXPECT_FALSE(p2m.IsValid(510));
  // The whole span lives in one chunk and compresses to one extent.
  EXPECT_EQ(p2m.extent_count(), 1);
}

TEST(P2mTest, MapRangeSpanningChunksSplitsPerChunk) {
  P2mTable p2m(4 * P2mTable::kChunkPages);
  const int64_t count = P2mTable::kChunkPages * 2;
  p2m.MapRange(P2mTable::kChunkPages / 2, count, 0);
  EXPECT_EQ(p2m.valid_count(), count);
  // Extents never cross chunk boundaries: half + full + half.
  EXPECT_EQ(p2m.extent_count(), 3);
  P2mTable::Run run = p2m.LookupRun(P2mTable::kChunkPages / 2);
  EXPECT_TRUE(run.valid);
  EXPECT_EQ(run.first, P2mTable::kChunkPages / 2);
  EXPECT_EQ(run.count, P2mTable::kChunkPages / 2);  // clipped at the boundary
}

TEST(P2mTest, UnmapRangeReversesMapRange) {
  P2mTable p2m(1024);
  p2m.MapRange(100, 300, 5000);
  p2m.UnmapRange(100, 300);
  EXPECT_EQ(p2m.valid_count(), 0);
  EXPECT_EQ(p2m.extent_count(), 0);
  for (Pfn pfn = 100; pfn < 400; ++pfn) {
    EXPECT_FALSE(p2m.IsValid(pfn));
  }
}

TEST(P2mTest, AdjacentMapsMergeIntoOneExtent) {
  P2mTable p2m(64);
  p2m.Map(4, 40);
  p2m.Map(6, 42);
  EXPECT_EQ(p2m.extent_count(), 2);
  p2m.Map(5, 41);  // bridges the gap: mfns and writability line up
  EXPECT_EQ(p2m.extent_count(), 1);
  P2mTable::Run run = p2m.LookupRun(5);
  EXPECT_EQ(run.first, 4);
  EXPECT_EQ(run.count, 3);
  EXPECT_EQ(run.mfn, 40);
}

TEST(P2mTest, DiscontiguousMfnsDoNotMerge) {
  P2mTable p2m(64);
  p2m.Map(4, 40);
  p2m.Map(5, 99);  // adjacent pfn, non-adjacent mfn
  EXPECT_EQ(p2m.extent_count(), 2);
  EXPECT_EQ(p2m.LookupRun(4).count, 1);
}

TEST(P2mTest, MidRunUnmapSplitsExtent) {
  P2mTable p2m(64);
  p2m.MapRange(0, 9, 100);
  EXPECT_EQ(p2m.extent_count(), 1);
  EXPECT_EQ(p2m.split_count(), 0);
  EXPECT_EQ(p2m.Unmap(4), 104);
  EXPECT_EQ(p2m.extent_count(), 2);
  EXPECT_EQ(p2m.split_count(), 1);
  EXPECT_EQ(p2m.LookupRun(0).count, 4);
  EXPECT_EQ(p2m.LookupRun(5).count, 4);
  // Remapping the hole to the contiguous mfn re-merges the three pieces.
  p2m.Map(4, 104);
  EXPECT_EQ(p2m.extent_count(), 1);
  EXPECT_EQ(p2m.LookupRun(0).count, 9);
}

TEST(P2mTest, WriteProtectSplitsAndUnprotectMerges) {
  P2mTable p2m(64);
  p2m.MapRange(0, 8, 200);
  p2m.WriteProtect(3);
  EXPECT_FALSE(p2m.IsWritable(3));
  EXPECT_TRUE(p2m.IsWritable(2));
  EXPECT_TRUE(p2m.IsValid(3));
  EXPECT_EQ(p2m.Lookup(3), 203);
  EXPECT_EQ(p2m.extent_count(), 3);  // writable | read-only | writable
  p2m.WriteUnprotect(3);
  EXPECT_TRUE(p2m.IsWritable(3));
  EXPECT_EQ(p2m.extent_count(), 1);
}

TEST(P2mTest, WriteProtectRangeFlipsWholeSpan) {
  P2mTable p2m(1024);
  p2m.MapRange(0, 600, 0);
  p2m.WriteProtectRange(100, 400);
  for (Pfn pfn : {Pfn{99}, Pfn{500}}) {
    EXPECT_TRUE(p2m.IsWritable(pfn));
  }
  for (Pfn pfn : {Pfn{100}, Pfn{499}}) {
    EXPECT_FALSE(p2m.IsWritable(pfn));
    EXPECT_TRUE(p2m.IsValid(pfn));
  }
  p2m.WriteUnprotectRange(100, 400);
  for (Pfn pfn = 0; pfn < 600; ++pfn) {
    EXPECT_TRUE(p2m.IsWritable(pfn));
  }
  // All splits healed: one extent per chunk again.
  EXPECT_EQ(p2m.extent_count(), 2);
}

TEST(P2mTest, RunIterationCoversWholeTable) {
  P2mTable p2m(2 * P2mTable::kChunkPages);
  p2m.MapRange(50, 100, 900);
  p2m.MapRange(600, 30, 300);
  int64_t covered = 0;
  int64_t valid = 0;
  for (Pfn pfn = 0; pfn < p2m.num_pages();) {
    const P2mTable::Run run = p2m.LookupRun(pfn);
    ASSERT_EQ(run.first, pfn);  // runs tile the space exactly
    ASSERT_GT(run.count, 0);
    covered += run.count;
    if (run.valid) {
      valid += run.count;
      for (int64_t k = 0; k < run.count; ++k) {
        ASSERT_EQ(p2m.Lookup(pfn + k), run.mfn + k);
      }
    }
    pfn += run.count;
  }
  EXPECT_EQ(covered, p2m.num_pages());
  EXPECT_EQ(valid, p2m.valid_count());
}

TEST(P2mTest, ChurnConvertsChunkToPackedAndStaysCorrect) {
  P2mTable p2m(P2mTable::kChunkPages);
  // Anti-contiguous singleton mappings: pfn i -> mfn (511 - i). No two
  // neighbours merge, so the chunk shreds past kPackThreshold and converts.
  for (Pfn pfn = 0; pfn < P2mTable::kChunkPages; ++pfn) {
    p2m.Map(pfn, P2mTable::kChunkPages - 1 - pfn);
  }
  EXPECT_EQ(p2m.packed_chunk_count(), 1);
  EXPECT_EQ(p2m.extent_count(), 0);
  for (Pfn pfn = 0; pfn < P2mTable::kChunkPages; ++pfn) {
    EXPECT_EQ(p2m.Lookup(pfn), P2mTable::kChunkPages - 1 - pfn);
  }
  // Per-page mutations keep working against the packed form.
  p2m.WriteProtect(7);
  EXPECT_FALSE(p2m.IsWritable(7));
  EXPECT_EQ(p2m.Unmap(9), P2mTable::kChunkPages - 10);
  EXPECT_FALSE(p2m.IsValid(9));
  EXPECT_EQ(p2m.valid_count(), P2mTable::kChunkPages - 1);
  // Runs in packed chunks are still maximal: descending mfns -> singletons.
  EXPECT_EQ(p2m.LookupRun(20).count, 1);
}

TEST(P2mTest, PackedRunsExtendAcrossContiguousEntries) {
  P2mTable p2m(P2mTable::kChunkPages);
  // Shred the chunk into packed mode, then rebuild a contiguous stretch.
  for (Pfn pfn = 0; pfn < P2mTable::kChunkPages; ++pfn) {
    p2m.Map(pfn, P2mTable::kChunkPages - 1 - pfn);
  }
  ASSERT_EQ(p2m.packed_chunk_count(), 1);
  p2m.UnmapRange(100, 50);
  p2m.MapRange(100, 50, 3000);
  const P2mTable::Run run = p2m.LookupRun(125);
  EXPECT_TRUE(run.valid);
  EXPECT_EQ(run.first, 100);
  EXPECT_EQ(run.count, 50);
  EXPECT_EQ(run.mfn, 3000);
}

TEST(P2mTest, ReferenceModeMatchesExtentModeOnRandomOps) {
  P2mTable::SetReferenceModeForTest(true);
  P2mTable ref(1024);
  P2mTable::SetReferenceModeForTest(false);
  P2mTable ext(1024);
  EXPECT_TRUE(ref.reference_mode());
  EXPECT_FALSE(ext.reference_mode());

  // A deterministic op mix; both tables must agree entry-for-entry.
  uint64_t x = 12345;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 4000; ++i) {
    const Pfn pfn = static_cast<Pfn>(next() % 1024);
    switch (next() % 4) {
      case 0:
        if (!ext.IsValid(pfn)) {
          ext.Map(pfn, pfn + 7);
          ref.Map(pfn, pfn + 7);
        }
        break;
      case 1:
        if (ext.IsValid(pfn)) {
          EXPECT_EQ(ext.Unmap(pfn), ref.Unmap(pfn));
        }
        break;
      case 2:
        if (ext.IsValid(pfn)) {
          ext.WriteProtect(pfn);
          ref.WriteProtect(pfn);
        }
        break;
      default:
        if (ext.IsValid(pfn)) {
          ext.Remap(pfn, pfn + 11);
          ref.Remap(pfn, pfn + 11);
        }
        break;
    }
  }
  EXPECT_EQ(ext.valid_count(), ref.valid_count());
  for (Pfn pfn = 0; pfn < 1024; ++pfn) {
    ASSERT_EQ(ext.IsValid(pfn), ref.IsValid(pfn)) << pfn;
    ASSERT_EQ(ext.IsWritable(pfn), ref.IsWritable(pfn)) << pfn;
    ASSERT_EQ(ext.Lookup(pfn), ref.Lookup(pfn)) << pfn;
  }
}

TEST(P2mTest, MemoryStaysSubLinearForContiguousMappings) {
  // A fully contiguous mapping needs one extent per chunk regardless of
  // size: table memory is dominated by the chunk directory, far below the
  // 8 bytes/page a flat table pays.
  P2mTable small(1 << 12);
  small.MapRange(0, 1 << 12, 0);
  P2mTable big(1 << 16);
  big.MapRange(0, 1 << 16, 0);
  const int64_t flat_big = (1 << 16) * 8;
  EXPECT_LT(big.MemoryBytes(), flat_big / 4);
  // Growing pages 16x grows memory well under 16x once the fixed overhead
  // is subtracted (per-chunk cost, not per-page cost).
  EXPECT_LT(big.MemoryBytes(), 16 * small.MemoryBytes());
}

TEST(P2mDeathTest, MapRangeOverlapAborts) {
  P2mTable p2m(64);
  p2m.Map(5, 50);
  EXPECT_DEATH(p2m.MapRange(0, 10, 100), "XNUMA_CHECK");
}

TEST(P2mDeathTest, UnmapRangeWithHoleAborts) {
  P2mTable p2m(64);
  p2m.MapRange(0, 4, 10);
  p2m.MapRange(6, 4, 20);
  EXPECT_DEATH(p2m.UnmapRange(0, 10), "XNUMA_CHECK");
}

TEST(P2mDeathTest, DoubleMapAborts) {
  P2mTable p2m(4);
  p2m.Map(0, 1);
  EXPECT_DEATH(p2m.Map(0, 2), "XNUMA_CHECK");
}

TEST(P2mDeathTest, UnmapInvalidAborts) {
  P2mTable p2m(4);
  EXPECT_DEATH(p2m.Unmap(0), "XNUMA_CHECK");
}

TEST(P2mDeathTest, OutOfRangeAborts) {
  P2mTable p2m(4);
  EXPECT_DEATH(p2m.IsValid(4), "XNUMA_CHECK");
  EXPECT_DEATH(p2m.IsValid(-1), "XNUMA_CHECK");
}

}  // namespace
}  // namespace xnuma
