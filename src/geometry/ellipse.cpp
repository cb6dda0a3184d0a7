#include "geometry/ellipse.h"

#include <cmath>

namespace gstg {

float opacity_aware_rho(float opacity) {
  if (opacity <= 1.0f / 255.0f) return 0.0f;
  return 2.0f * std::log(255.0f * opacity);
}

Ellipse Ellipse::from_cov(Vec2 center, Sym2 cov, float rho) {
  Ellipse e;
  e.center = center;
  e.cov = cov;
  e.conic = inverse(cov);  // throws if not SPD
  e.rho = rho;
  return e;
}

Vec2 Ellipse::semi_axes() const {
  const Eigen2 eig = eigen_decompose(cov);
  return {std::sqrt(std::max(0.0f, rho * eig.lambda1)),
          std::sqrt(std::max(0.0f, rho * eig.lambda2))};
}

Obb Obb::from_ellipse(const Ellipse& e) {
  const Eigen2 eig = eigen_decompose(e.cov);
  Obb o;
  o.center = e.center;
  o.axis1 = eig.axis1;
  o.axis2 = eig.axis2;
  o.half1 = std::sqrt(std::max(0.0f, e.rho * eig.lambda1));
  o.half2 = std::sqrt(std::max(0.0f, e.rho * eig.lambda2));
  return o;
}

}  // namespace gstg
