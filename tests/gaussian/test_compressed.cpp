// CompressedCloud (gaussian/compressed.h): the fp16 resident form must
// round-trip exactly like the quantisation pass, survive adversarial values
// (NaN/Inf/subnormal/overflow) bit-for-bit, bound-check decode ranges, halve
// the resident bytes exactly, and decode into warmed scratch without
// allocating.
#include "gaussian/compressed.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>

#include "common/half.h"
#include "gaussian/quantize.h"
#include "test_helpers.h"

// Global allocation counter, as in tests/core/test_renderer.cpp: the warmed
// scratch-decode test asserts a zero delta. See that file for the GCC
// diagnostic rationale.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gstg {
namespace {

using testutil::make_random_cloud;

/// Bit-pattern float equality: distinguishes -0 from +0 and treats a NaN as
/// equal to the same NaN, which operator== cannot do.
void expect_bits_equal(float a, float b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a), std::bit_cast<std::uint32_t>(b)) << what;
}

void expect_decode_matches_quantized(const GaussianCloud& original, const GaussianCloud& decoded) {
  ASSERT_EQ(decoded.size(), original.size());
  ASSERT_EQ(decoded.sh_degree(), original.sh_degree());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const std::string at = "gaussian " + std::to_string(i);
    expect_bits_equal(decoded.position(i).x, quantize_to_half(original.position(i).x), at);
    expect_bits_equal(decoded.position(i).y, quantize_to_half(original.position(i).y), at);
    expect_bits_equal(decoded.position(i).z, quantize_to_half(original.position(i).z), at);
    expect_bits_equal(decoded.scale(i).x, quantize_to_half(original.scale(i).x), at);
    expect_bits_equal(decoded.scale(i).y, quantize_to_half(original.scale(i).y), at);
    expect_bits_equal(decoded.scale(i).z, quantize_to_half(original.scale(i).z), at);
    expect_bits_equal(decoded.rotation(i).w, quantize_to_half(original.rotation(i).w), at);
    expect_bits_equal(decoded.rotation(i).x, quantize_to_half(original.rotation(i).x), at);
    expect_bits_equal(decoded.rotation(i).y, quantize_to_half(original.rotation(i).y), at);
    expect_bits_equal(decoded.rotation(i).z, quantize_to_half(original.rotation(i).z), at);
    expect_bits_equal(decoded.opacity(i), quantize_to_half(original.opacity(i)), at);
  }
  ASSERT_EQ(decoded.sh_data().size(), original.sh_data().size());
  for (std::size_t k = 0; k < original.sh_data().size(); ++k) {
    expect_bits_equal(decoded.sh_data()[k], quantize_to_half(original.sh_data()[k]),
                      "sh float " + std::to_string(k));
  }
}

TEST(CompressedCloud, RoundTripMatchesQuantizePass) {
  // decode(encode(cloud)) must equal the in-place fp16 quantisation pass
  // for every parameter the pass rounds verbatim. Rotations differ by
  // design: quantize_cloud_to_fp16 re-normalises the quaternion after
  // rounding, while the resident form stores the raw fp16 values (so a
  // decode is idempotent); those are checked against the plain widening.
  const GaussianCloud cloud = make_random_cloud(500, 11, /*sh_degree=*/2);
  const CompressedCloud compressed = CompressedCloud::encode(cloud);
  const GaussianCloud decoded = compressed.decode();

  GaussianCloud quantized = cloud;
  (void)quantize_cloud_to_fp16(quantized);
  ASSERT_EQ(decoded.size(), quantized.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    const std::string at = "gaussian " + std::to_string(i);
    expect_bits_equal(decoded.position(i).x, quantized.position(i).x, at);
    expect_bits_equal(decoded.scale(i).y, quantized.scale(i).y, at);
    expect_bits_equal(decoded.rotation(i).w, quantize_to_half(cloud.rotation(i).w), at);
    expect_bits_equal(decoded.opacity(i), quantized.opacity(i), at);
  }
  EXPECT_EQ(decoded.sh_data(), quantized.sh_data());
}

TEST(CompressedCloud, EncodeDoesNotModifyTheSource) {
  const GaussianCloud cloud = make_random_cloud(64, 5);
  const GaussianCloud before = cloud;
  (void)CompressedCloud::encode(cloud);
  EXPECT_EQ(cloud.positions(), before.positions());
  EXPECT_EQ(cloud.sh_data(), before.sh_data());
}

TEST(CompressedCloud, AdversarialValuesRoundTripBitExact) {
  // NaN, infinities, fp32 subnormals (flush to fp16 zero), fp16 subnormals,
  // overflow to inf, negative zero, and the largest finite fp16 all follow
  // the Half conversion exactly. GaussianCloud::add validates its inputs,
  // so the hostile values go in through the mutable SoA accessors, exactly
  // as a corrupted checkpoint would reach the encoder.
  GaussianCloud cloud = make_random_cloud(16, 3, /*sh_degree=*/1);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  cloud.positions()[0] = {nan, inf, -inf};
  cloud.positions()[1] = {-0.0f, 1e-41f, std::numeric_limits<float>::denorm_min()};
  cloud.scales()[2] = {5.9604645e-8f, 6.0975552e-5f, 65504.0f};   // fp16 subnormal range + max
  cloud.scales()[3] = {65520.0f, 3.4e38f, 1e30f};                 // all round to +inf
  cloud.rotations()[4] = {inf, nan, -0.0f, -65520.0f};
  cloud.opacities()[5] = nan;
  cloud.opacities()[6] = 1e-45f;
  cloud.sh_data()[0] = -1e30f;
  cloud.sh_data()[1] = nan;
  cloud.sh_data()[2] = 1.1754944e-38f;

  const CompressedCloud compressed = CompressedCloud::encode(cloud);
  expect_decode_matches_quantized(cloud, compressed.decode());

  // Spot-check the stored patterns: overflow really is the fp16 infinity.
  EXPECT_TRUE(compressed.opacity(5).is_nan());
  const GaussianCloud decoded = compressed.decode();
  EXPECT_TRUE(std::isinf(decoded.scale(3).x));
  EXPECT_EQ(decoded.scale(2).z, 65504.0f);
  expect_bits_equal(decoded.position(1).x, -0.0f, "negative zero must survive");
  EXPECT_EQ(decoded.position(1).y, 0.0f) << "fp32 subnormal flushes to fp16 zero";
}

TEST(CompressedCloud, DecodeRangeMatchesFullDecodeSlices) {
  const GaussianCloud cloud = make_random_cloud(300, 21, /*sh_degree=*/1);
  const CompressedCloud compressed = CompressedCloud::encode(cloud);
  const GaussianCloud full = compressed.decode();

  GaussianCloud chunk;
  for (const auto& [lo, hi] :
       {std::pair<std::size_t, std::size_t>{0, 300}, {0, 1}, {299, 300}, {17, 203}, {100, 100}}) {
    compressed.decode_range(lo, hi, chunk);
    ASSERT_EQ(chunk.size(), hi - lo);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      expect_bits_equal(chunk.position(i).x, full.position(lo + i).x, "slice position");
      expect_bits_equal(chunk.opacity(i), full.opacity(lo + i), "slice opacity");
    }
  }
}

TEST(CompressedCloud, DecodeRangeBoundsChecked) {
  const CompressedCloud compressed = CompressedCloud::encode(make_random_cloud(10, 1));
  GaussianCloud out;
  EXPECT_THROW(compressed.decode_range(0, 11, out), std::out_of_range);
  EXPECT_THROW(compressed.decode_range(5, 4, out), std::out_of_range);
  EXPECT_THROW(compressed.decode_range(11, 11, out), std::out_of_range);
  EXPECT_NO_THROW(compressed.decode_range(10, 10, out));
}

TEST(CompressedCloud, ResidentBytesAreExactlyHalfOfFloat32) {
  for (const int sh_degree : {0, 1, 2, 3}) {
    const GaussianCloud cloud = make_random_cloud(123, 9, sh_degree);
    const CompressedCloud compressed = CompressedCloud::encode(cloud);
    EXPECT_EQ(compressed.size(), cloud.size());
    EXPECT_EQ(compressed.resident_bytes() * 2, compressed.float32_bytes()) << sh_degree;
    // And both agree with the accelerator DRAM layout model.
    EXPECT_EQ(compressed.resident_bytes(), cloud.size() * cloud.bytes_per_gaussian(2));
    EXPECT_EQ(compressed.float32_bytes(), cloud.size() * cloud.bytes_per_gaussian(4));
  }
}

TEST(CompressedCloud, EmptyCloudIsFine) {
  const CompressedCloud compressed = CompressedCloud::encode(GaussianCloud(1));
  EXPECT_TRUE(compressed.empty());
  EXPECT_EQ(compressed.resident_bytes(), 0u);
  EXPECT_TRUE(compressed.decode().empty());
  GaussianCloud out;
  EXPECT_NO_THROW(compressed.decode_range(0, 0, out));
}

TEST(CompressedCloud, DecodeIntoWarmedScratchDoesNotAllocate) {
  // The streamed render path decodes fixed-size blocks into per-worker
  // scratch every frame; after the first pass that must be allocation-free.
  const CompressedCloud compressed = CompressedCloud::encode(make_random_cloud(1024, 7, 2));
  GaussianCloud scratch;
  compressed.decode_range(0, 512, scratch);  // warm-up sizes the buffers

  const std::size_t before = g_alloc_count.load();
  for (std::size_t lo = 0; lo < compressed.size(); lo += 512) {
    compressed.decode_range(lo, std::min<std::size_t>(lo + 512, compressed.size()), scratch);
  }
  EXPECT_EQ(g_alloc_count.load() - before, 0u) << "warmed decode_range allocated";
}

TEST(CompressedCloud, ScratchRebuiltOnShDegreeMismatch) {
  const CompressedCloud degree2 = CompressedCloud::encode(make_random_cloud(8, 2, 2));
  GaussianCloud scratch(0);
  degree2.decode_range(0, 8, scratch);
  EXPECT_EQ(scratch.sh_degree(), 2);
  EXPECT_EQ(scratch.sh_data().size(), 8 * degree2.sh_floats_per_gaussian());
}

}  // namespace
}  // namespace gstg
