#include "src/common/rng.h"

#include <cmath>

namespace xnuma {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(&sm);
  }
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

namespace {

// One Box-Muller pair from uniforms (u1, u2): the cosine half is returned
// first, the sine half second.
inline void BoxMuller(double u1, double u2, double* first, double* second) {
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  *first = r * std::cos(theta);
  *second = r * std::sin(theta);
}

}  // namespace

double Rng::NextGaussian() {
  if (has_gaussian_) {
    has_gaussian_ = false;
    return pending_gaussian_;
  }
  const double u1 = NextDouble();
  const double u2 = NextDouble();
  double first = 0.0;
  BoxMuller(u1, u2, &first, &pending_gaussian_);
  has_gaussian_ = true;
  return first;
}

void Rng::FillGaussian(double* out, size_t n) {
  size_t i = 0;
  if (n > 0 && has_gaussian_) {
    has_gaussian_ = false;
    out[i++] = pending_gaussian_;
  }
  // Whole pairs: stage each pair's uniforms in its own two output slots,
  // then transform in place.
  const size_t end = i + (n - i) / 2 * 2;
  for (size_t k = i; k < end; ++k) {
    out[k] = NextDouble();
  }
  for (size_t k = i; k < end; k += 2) {
    BoxMuller(out[k], out[k + 1], &out[k], &out[k + 1]);
  }
  if (end < n) {
    out[end] = NextGaussian();  // odd tail: leaves the sine half pending
  }
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace xnuma
