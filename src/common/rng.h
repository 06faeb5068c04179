// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic decision in the simulator draws from an explicitly seeded
// Rng so that experiments are exactly reproducible run-to-run. The generator
// is xoshiro256** seeded through SplitMix64, which is fast and has no
// observable bias for our uses (placement jitter, sampling noise).

#ifndef XENNUMA_SRC_COMMON_RNG_H_
#define XENNUMA_SRC_COMMON_RNG_H_

#include <cmath>
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

  // Normal(0, 1) by a 256-layer ziggurat (Marsaglia & Tsang 2000), with the
  // bits taken as Doornik (2005) does: one NextU64 gives the layer (low 8
  // bits) and a signed uniform in [-1, 1) (top 53 bits). A draw inside the
  // layer's inner rectangle, 98.5% of them, costs that one NextU64, a
  // multiply and a compare; the rest go to the wedge or tail test, which
  // consumes further NextU64s. Deterministic for a given seed.
  double NextGaussian() {
    const uint64_t bits = NextU64();
    const int layer = static_cast<int>(bits & (kZigguratLayers - 1));
    const double x =
        (static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0) * kZigguratX[layer];
    if (std::fabs(x) < kZigguratX[layer + 1]) {
      return x;
    }
    return GaussianOutsideRectangle(layer, x);
  }

  // Ziggurat layer tables, exposed so tests can check their identities.
  // x[0] = V / f(R) is the base strip's width, x[1] = R = 3.6541528853610088
  // is where the tail starts, x[256] = 0; f[i] = exp(-x[i]^2 / 2) except
  // f[0] = 0. Layer i spans heights [f[i], f[i+1]) with width x[i], and every
  // layer's area x[i] * (f[i+1] - f[i]) is the same V (the base strip counts
  // the tail beyond R). Hex-float literals, so no build or libm moves them.
  static constexpr int kZigguratLayers = 256;
  static const double kZigguratX[kZigguratLayers + 1];
  static const double kZigguratF[kZigguratLayers + 1];

  // Derives an independent child generator; useful to give each simulated
  // component its own stream without cross-coupling.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  // NextGaussian's slow path: `x` fell outside `layer`'s inner rectangle.
  // Samples the tail (layer 0) or tests the wedge, drawing afresh on reject.
  double GaussianOutsideRectangle(int layer, double x);

  uint64_t s_[4];
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_COMMON_RNG_H_
