// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic decision in the simulator draws from an explicitly seeded
// Rng so that experiments are exactly reproducible run-to-run. The generator
// is xoshiro256** seeded through SplitMix64, which is fast and has no
// observable bias for our uses (placement jitter, sampling noise).

#ifndef XENNUMA_SRC_COMMON_RNG_H_
#define XENNUMA_SRC_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>

namespace xnuma {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  // Uniform 64-bit value. Inline: the per-page hot paths (placement jitter,
  // release selection) draw millions of values per simulated second.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). `bound` must be positive. Modulo bias is
  // negligible for bounds far below 2^64.
  int64_t NextInt(int64_t bound) {
    return static_cast<int64_t>(NextU64() % static_cast<uint64_t>(bound));
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // True with probability `p` (clamped to [0, 1]).
  bool NextBool(double p);

  // Normal(0, 1) via Box-Muller; deterministic for a given seed.
  double NextGaussian();

  // Writes `n` Normal(0, 1) values to `out`, bit-identical to `n` successive
  // NextGaussian() calls (including the pending half-pair it consumes on
  // entry and the one it leaves behind). Draws the uniforms of every whole
  // pair first, then runs the Box-Muller transforms in one tight loop.
  void FillGaussian(double* out, size_t n);

  // Derives an independent child generator; useful to give each simulated
  // component its own stream without cross-coupling.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  bool has_gaussian_ = false;
  double pending_gaussian_ = 0.0;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_COMMON_RNG_H_
