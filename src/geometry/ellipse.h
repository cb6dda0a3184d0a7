// Screen-space elliptical splat footprint.
//
// A projected Gaussian with 2D covariance S (Sym2) and opacity sigma has the
// iso-contour (p-mu)^T S^{-1} (p-mu) = rho. The paper applies the 3-sigma
// rule (rho = 9) to bound each Gaussian's influence; the opacity-aware bound
// rho = 2 ln(255 sigma) used by FlashGS is also provided.
#pragma once

#include <cmath>

#include "geometry/rect.h"
#include "geometry/sym2.h"
#include "geometry/vec.h"

namespace gstg {

/// rho for the 3-sigma rule used by the original 3D-GS and this paper.
inline constexpr float kThreeSigmaRho = 9.0f;

/// rho at which alpha falls below 1/255 for a Gaussian with peak opacity
/// sigma: alpha = sigma * exp(-q/2) >= 1/255  <=>  q <= 2 ln(255 sigma).
/// Returns 0 for sigma <= 1/255 (never visible).
float opacity_aware_rho(float opacity);

/// Elliptical footprint: centre, covariance, conic (inverse covariance) and
/// the contour level rho defining its extent.
struct Ellipse {
  Vec2 center;
  Sym2 cov;    ///< screen-space covariance
  Sym2 conic;  ///< cov^{-1}
  float rho = kThreeSigmaRho;

  /// Footprint from a covariance; throws std::domain_error for a
  /// non-positive-definite covariance.
  static Ellipse from_cov(Vec2 center, Sym2 cov, float rho = kThreeSigmaRho);

  /// Mahalanobis quadratic q(p) = (p-c)^T conic (p-c).
  [[nodiscard]] float mahalanobis_sq(Vec2 p) const { return conic.quad(p - center); }

  [[nodiscard]] bool contains(Vec2 p) const { return mahalanobis_sq(p) <= rho; }

  /// Tight axis-aligned bounding rectangle: half-extent along x is
  /// sqrt(rho * cov.xx), along y sqrt(rho * cov.yy). Inline: binning and
  /// bitmask generation derive every candidate range from it.
  [[nodiscard]] Rect aabb() const {
    // Extent of {d : d^T cov^{-1} d <= rho} along x is sqrt(rho * cov.xx):
    // substituting d = cov^{1/2} u with |u|^2 <= rho maximises d.x at
    // sqrt(rho) * ||row_x(cov^{1/2})|| = sqrt(rho * cov.xx). A negative
    // product collapses to zero extent; a NaN product (degenerate rho or
    // covariance) must stay NaN so the candidate-cell math can reject the
    // box — std::max(0, NaN) would silently fabricate a point box.
    const auto extent = [](float v) { return v > 0.0f ? std::sqrt(v) : (v <= 0.0f ? 0.0f : v); };
    const float ex = extent(rho * cov.xx);
    const float ey = extent(rho * cov.yy);
    return Rect{center.x - ex, center.y - ey, center.x + ex, center.y + ey};
  }

  /// Semi-axis lengths (major, minor) = sqrt(rho * eigenvalues).
  [[nodiscard]] Vec2 semi_axes() const;
};

/// Oriented bounding box of the ellipse: centre, unit axes, half extents.
struct Obb {
  Vec2 center;
  Vec2 axis1;  ///< unit direction of the major axis
  Vec2 axis2;  ///< unit direction of the minor axis
  float half1 = 0.0f;
  float half2 = 0.0f;

  static Obb from_ellipse(const Ellipse& e);
};

}  // namespace gstg
