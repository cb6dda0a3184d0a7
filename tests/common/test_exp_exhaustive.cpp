// Exhaustive exp_exact check: every float of [-16, 0] (~1.1e9 inputs) gives
// the bits of std::exp on glibc builds (exp_exact ports glibc's expf) and
// is within 1 ULP elsewhere. Labelled `exhaustive` (ctest -L / -LE); the
// strided sample in test_simd.cpp runs with the common layer.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/simd.h"

namespace gstg {
namespace {

bool exp_exact_ok(float got, float want) {
#if defined(__GLIBC__)
  return std::bit_cast<std::uint32_t>(got) == std::bit_cast<std::uint32_t>(want);
#else
  return got == want || got == std::nextafter(want, 0.0f) || got == std::nextafter(want, 1.0f);
#endif
}

TEST(ExpExactExhaustive, EveryFloatOfMinus16To0) {
  const std::uint32_t lo = std::bit_cast<std::uint32_t>(-0.0f);
  const std::uint32_t hi = std::bit_cast<std::uint32_t>(-16.0f);
  constexpr std::uint32_t kThreads = 4;
  const std::uint32_t chunk = (hi - lo) / kThreads + 1;
  std::vector<std::uint64_t> bad(kThreads, 0);
  std::vector<float> first_bad(kThreads, 0.0f);
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::uint32_t a = lo + t * chunk;
      const std::uint32_t b = t + 1 == kThreads ? hi : a + chunk - 1;
      for (std::uint32_t u = a;; ++u) {
        const float x = std::bit_cast<float>(u);
        if (!exp_exact_ok(exp_exact<1>(VecF32<1>::broadcast(x)).v[0], std::exp(x))) {
          if (bad[t]++ == 0) first_bad[t] = x;
        }
        if (u == b) break;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bad[t], 0u) << "first mismatch at x = " << first_bad[t];
  }
}

}  // namespace
}  // namespace gstg
