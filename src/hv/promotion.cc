#include "src/hv/promotion.h"

#include <algorithm>
#include <cstdlib>

#include "src/hv/hypervisor.h"

namespace xnuma {

namespace {
// splitmix64: turns (seed, domain, level) into a well-spread sweep phase.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

PageOrder LevelOrder(int level) {
  return level == 0 ? PageOrder::k2M : PageOrder::k1G;
}
}  // namespace

PromotionDaemon::PromotionDaemon(Hypervisor& hv, const Config& config)
    : hv_(hv), config_(config) {}

void PromotionDaemon::Tick() {
  if (static_cast<int>(cursors_.size()) < hv_.num_domains()) {
    cursors_.resize(hv_.num_domains());
  }
  const bool audit = std::getenv("XNUMA_P2M_AUDIT") != nullptr;
  for (DomainId id = 0; id < hv_.num_domains(); ++id) {
    if (!hv_.DomainAlive(id)) {
      continue;  // a tombstone has no table to promote
    }
    P2mTable& p2m = hv_.domain(id).p2m();
    if (p2m.max_order() == PageOrder::k4K) {
      continue;
    }
    Cursor& cur = cursors_[id];
    for (int level = 0; level < 2; ++level) {
      const PageOrder order = LevelOrder(level);
      const int64_t span = p2m.OrderSpan(order);
      if (span <= 1) {
        continue;
      }
      const int64_t num_slots = p2m.num_pages() / span;
      if (num_slots <= 0) {
        continue;
      }
      if (!cur.init[level]) {
        cur.pos[level] = static_cast<int64_t>(
            Mix(config_.seed ^ ((static_cast<uint64_t>(id) << 1) |
                                static_cast<uint64_t>(level))) %
            static_cast<uint64_t>(num_slots));
        cur.init[level] = true;
      }
      const int64_t budget = std::min<int64_t>(config_.slots_per_epoch, num_slots);
      for (int64_t i = 0; i < budget; ++i) {
        const int64_t slot = cur.pos[level] % num_slots;
        cur.pos[level] = (cur.pos[level] + 1) % num_slots;
        ++slots_examined_;
        if (p2m.TryPromote(slot * span, order)) {
          ++promotions_;
        }
      }
    }
    if (audit) {
      p2m.AuditCounters();
    }
  }
}

}  // namespace xnuma
