// What the program is given: explicit configurations and the seeded inputs
// of each workload (camera sets, the request schedule of the open loop).
// The same seed always produces the same inputs.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "camera/camera.h"
#include "core/gstg_config.h"
#include "scene/scene.h"
#include "service/render_service.h"

namespace perfbench {

/// Seeded generator with platform-independent draws (std::mt19937_64's
/// sequence is fixed by the standard; the distributions here are too).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }
  /// Exponential gap of a Poisson process with `rate` events per unit.
  double exponential(double rate);

 private:
  std::mt19937_64 engine_;
};

/// The GS-TG configuration every workload renders with, each field set
/// explicitly: 16-px tiles in 64-px groups, ellipse boundaries, exact
/// blending, one render thread.
[[nodiscard]] gstg::GsTgConfig gstg_config();

/// The service configuration of service_tour, each knob set explicitly so
/// no GSTG_SERVICE_* default is consulted: two workers, one render thread
/// each, temporal reuse for session streams, no verify re-render.
[[nodiscard]] gstg::ServiceConfig service_config();

/// Name of the SIMD backend the kernels resolve to (kAuto, no override).
[[nodiscard]] const char* simd_backend();

/// `count` views evenly spaced on the scene's evaluation orbit, rotated by
/// `phase` (in units of the view spacing, [0, 1)).
[[nodiscard]] std::vector<gstg::Camera> orbit_views(const gstg::Scene& scene, int count,
                                                    double phase);

/// Seeded permutation of [0, n).
[[nodiscard]] std::vector<std::size_t> shuffled(std::size_t n, Rng& rng);

/// One open-loop request: when it is due (ms after the loop starts), its
/// session (0 = stateless) and the index of its camera in TourInputs.
struct TourRequest {
  double due_ms = 0.0;
  std::uint64_t session = 0;
  std::size_t camera = 0;
};

/// service_tour's inputs: the distinct cameras any request may carry (a
/// fixed stateless pool plus the frames of the session tour), and the
/// seeded request schedule.
struct TourInputs {
  std::vector<gstg::Camera> cameras;
  std::vector<TourRequest> requests;
};

inline constexpr int kTourPoolViews = 72;
inline constexpr std::uint64_t kTourSessions = 4;

/// Poisson arrivals at `rate_rps`, `count` requests. Each is, with equal
/// odds, the next frame of one of kTourSessions session streams (each walks
/// a stop-and-look tour of the orbit from a seeded start) or a stateless
/// view drawn from the pool.
[[nodiscard]] TourInputs tour_inputs(const gstg::Scene& scene, std::uint64_t seed,
                                     double rate_rps, std::size_t count);

}  // namespace perfbench
