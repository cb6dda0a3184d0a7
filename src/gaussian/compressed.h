// Compressed resident representation of a GaussianCloud: every parameter
// stored as IEEE binary16 (common/half.h), structure-of-arrays.
//
// At full scale the resident Gaussian state — not the per-frame math — is
// what blows up memory footprint and bandwidth (the storage framing of the
// 129FPS Full-HD accelerator paper, PAPERS.md). This form halves the
// resident bytes and pairs with decode-on-touch in the preprocess stage
// (render/preprocess.h): fixed-size blocks are decoded into per-worker
// scratch as the projection kernels stream over them, so the float32 form
// of the whole cloud never exists at steady state.
//
// Exactness contract: decode is the exact fp16 -> fp32 widening, so
//   decode(encode(cloud)) == quantize_cloud_to_fp16(cloud)   (value-wise)
// and rendering the streamed decode is bit-identical to rendering the
// up-front decode — ResidencyMode::kVerify asserts exactly that.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/half.h"
#include "gaussian/cloud.h"

namespace gstg {

/// Typed error for a compressed-residency audit failure: a streamed-decode
/// render that is not bit-identical to the up-front-decode render under
/// ResidencyMode::kVerify. Derives from std::runtime_error so generic catch
/// sites keep working while the service can map it to a typed response.
class ResidencyError : public std::runtime_error {
 public:
  explicit ResidencyError(const std::string& message)
      : std::runtime_error("residency: " + message) {}
};

/// fp16 structure-of-arrays resident form of a GaussianCloud. Encoding
/// rounds every parameter through binary16 (round-to-nearest-even; NaN/Inf
/// and subnormals follow the Half conversion, which is exhaustively
/// tested); decoding widens exactly. Parameter layout matches the
/// accelerator DRAM model: position(3) + scale(3) + rotation(4) +
/// opacity(1) + SH.
class CompressedCloud {
 public:
  CompressedCloud() = default;

  /// Rounds every parameter of `cloud` through fp16. The source cloud is
  /// not modified (unlike quantize_cloud_to_fp16).
  static CompressedCloud encode(const GaussianCloud& cloud);

  [[nodiscard]] std::size_t size() const { return opacity_.size(); }
  [[nodiscard]] bool empty() const { return opacity_.empty(); }
  [[nodiscard]] int sh_degree() const { return sh_degree_; }
  [[nodiscard]] std::size_t sh_floats_per_gaussian() const {
    return 3 * sh_coeff_count(sh_degree_);
  }

  /// Decodes Gaussians [lo, hi) into `out` at local indices [0, hi - lo).
  /// `out` is resized (its vector capacities persist across calls, so a
  /// warmed-up scratch cloud decodes without allocating) and rebuilt with
  /// this cloud's SH degree if it differs. Requires lo <= hi <= size().
  void decode_range(std::size_t lo, std::size_t hi, GaussianCloud& out) const;

  /// Decodes the whole cloud (the up-front form kFloat32 renders).
  [[nodiscard]] GaussianCloud decode() const;

  /// Resident payload bytes of this form: 2 bytes per stored scalar.
  [[nodiscard]] std::size_t resident_bytes() const {
    return size() * (11 + sh_floats_per_gaussian()) * sizeof(std::uint16_t);
  }
  /// Resident payload bytes the float32 SoA needs for the same cloud.
  [[nodiscard]] std::size_t float32_bytes() const {
    return size() * (11 + sh_floats_per_gaussian()) * sizeof(float);
  }

  /// Raw component access (tests; the decode loops stay inside the class).
  [[nodiscard]] Half position_x(std::size_t i) const { return px_[i]; }
  [[nodiscard]] Half opacity(std::size_t i) const { return opacity_[i]; }

 private:
  int sh_degree_ = 0;
  std::vector<Half> px_, py_, pz_;
  std::vector<Half> sx_, sy_, sz_;
  std::vector<Half> qw_, qx_, qy_, qz_;
  std::vector<Half> opacity_;
  std::vector<Half> sh_;  // flattened [i][channel][coeff], as in GaussianCloud
};

}  // namespace gstg
