// Background superpage promotion daemon (docs/MODEL.md §14).
//
// Carrefour migration and first-touch churn fragment superpages (each
// migrated page shatters its covering 2M/1G entry one order down); this
// daemon is the healing half: a deterministic per-epoch sweep that re-
// coalesces aligned, uniformly mapped runs back into native superpage
// entries via P2mTable::TryPromote.
//
// Determinism contract: the sweep order depends only on the seed, the
// domain ids, and the per-domain cursor positions — never on wall time or
// allocation addresses — so two engines with identical configs promote
// identically. Promotion itself is a pure representation change (every
// lookup answers the same before and after), so runs with the daemon on
// and off are bit-identical in results; only `p2m.promotions` and the
// order-histogram gauges move.

#ifndef XENNUMA_SRC_HV_PROMOTION_H_
#define XENNUMA_SRC_HV_PROMOTION_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace xnuma {

class Hypervisor;

class PromotionDaemon {
 public:
  struct Config {
    // Superpage slots examined per order per domain per Tick(). Each
    // examination is one TryPromote probe: O(1) on a covered or
    // non-uniform slot, one run walk on a promotable one.
    int slots_per_epoch = 32;
    uint64_t seed = 1;
  };

  PromotionDaemon(Hypervisor& hv, const Config& config);

  // One epoch pass: sweeps every live order-enabled domain in id order, 2M
  // slots first, then 1G (so freshly healed 2M entries can feed a 1G
  // promotion in a later epoch). Per-domain cursors persist across ticks;
  // their start offsets are seeded so different seeds sweep in different
  // phases.
  void Tick();

  int64_t promotions() const { return promotions_; }
  int64_t slots_examined() const { return slots_examined_; }

 private:
  struct Cursor {
    bool init[2] = {false, false};
    int64_t pos[2] = {0, 0};  // next slot per order (0 = 2M, 1 = 1G)
  };

  Hypervisor& hv_;
  Config config_;
  std::vector<Cursor> cursors_;  // indexed by domain id
  int64_t promotions_ = 0;
  int64_t slots_examined_ = 0;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_HV_PROMOTION_H_
