#include "inputs.h"

#include <cmath>
#include <cstring>

#include "render/simd_kernels.h"
#include "temporal/camera_path.h"

namespace perfbench {

double Rng::exponential(double rate) { return -std::log1p(-uniform()) / rate; }

gstg::GsTgConfig gstg_config() {
  gstg::GsTgConfig c;
  c.tile_size = 16;
  c.group_size = 64;
  c.group_boundary = gstg::Boundary::kEllipse;
  c.mask_boundary = gstg::Boundary::kEllipse;
  c.opacity_aware_rho = false;
  c.sort_algo = gstg::SortAlgo::kAuto;
  c.simd = {gstg::SimdBackend::kAuto, gstg::ExpMode::kExact};
  c.temporal = gstg::TemporalMode::kOff;
  c.binning = gstg::BinningMode::kAuto;
  c.residency = gstg::ResidencyMode::kCompressed;
  c.pipeline = gstg::PipelineMode::kExact;
  c.threads = 1;
  c.trace = false;
  return c;
}

gstg::ServiceConfig service_config() {
  gstg::ServiceConfig c;
  c.render = gstg_config();
  c.render.temporal = gstg::TemporalMode::kReuse;
  c.workers = 2;
  c.queue_capacity = 64;
  c.scene_capacity = 1;
  c.max_batch = 16;
  c.session_capacity = 64;
  c.verify = false;
  c.trace = false;
  return c;
}

const char* simd_backend() {
  return gstg::to_string(gstg::resolve_simd_backend(gstg::SimdBackend::kAuto));
}

std::vector<gstg::Camera> orbit_views(const gstg::Scene& scene, int count, double phase) {
  const double angle = 2.0 * 3.14159265358979323846 * phase / count;
  const gstg::Vec3 eye = scene.camera.position();
  const gstg::Vec3 offset = eye - scene.focus;
  const auto c = static_cast<float>(std::cos(angle));
  const auto s = static_cast<float>(std::sin(angle));
  const gstg::Vec3 start = scene.focus + gstg::Vec3{offset.x * c - offset.z * s, offset.y,
                                                    offset.x * s + offset.z * c};
  const gstg::CameraIntrinsics intrinsics{scene.render_width, scene.render_height, 1.2f};
  const gstg::CameraPath path = gstg::CameraPath::orbit(
      "perfbench-orbit", intrinsics, scene.focus, start,
      1.0f - 1.0f / static_cast<float>(count), count);
  return path.frames(count).cameras;
}

std::vector<std::size_t> shuffled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

namespace {

bool same_camera(const gstg::Camera& a, const gstg::Camera& b) {
  return a.width() == b.width() && a.height() == b.height() && a.fx() == b.fx() &&
         a.fy() == b.fy() && a.cx() == b.cx() && a.cy() == b.cy() &&
         std::memcmp(&a.world_to_camera(), &b.world_to_camera(), sizeof(gstg::Mat4)) == 0;
}

std::size_t intern(std::vector<gstg::Camera>& cameras, const gstg::Camera& camera) {
  for (std::size_t i = 0; i < cameras.size(); ++i) {
    if (same_camera(cameras[i], camera)) return i;
  }
  cameras.push_back(camera);
  return cameras.size() - 1;
}

}  // namespace

TourInputs tour_inputs(const gstg::Scene& scene, std::uint64_t seed, double rate_rps,
                       std::size_t count) {
  TourInputs in;
  std::vector<std::size_t> pool;
  for (const gstg::Camera& camera : orbit_views(scene, kTourPoolViews, 0.5)) {
    pool.push_back(intern(in.cameras, camera));
  }
  // Eight stops around the orbit, held for four frames each with three
  // moving frames between stops: the temporal cache reuses whole groups on
  // hold frames and patches them while moving.
  const gstg::FrameSequence tour =
      gstg::tour_frames(gstg::orbit_path(scene, 1.0f, 8), /*move_frames=*/3, /*hold_frames=*/4);
  std::vector<std::size_t> tour_ids;
  for (const gstg::Camera& camera : tour.cameras) tour_ids.push_back(intern(in.cameras, camera));

  Rng rng(seed);
  std::vector<std::size_t> cursor(kTourSessions);
  for (std::size_t& c : cursor) c = rng.below(tour_ids.size());
  double due_s = 0.0;
  in.requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    due_s += rng.exponential(rate_rps);
    TourRequest r;
    r.due_ms = due_s * 1000.0;
    if (rng.uniform() < 0.5) {
      const std::size_t s = rng.below(kTourSessions);
      r.session = s + 1;
      r.camera = tour_ids[cursor[s]];
      cursor[s] = (cursor[s] + 1) % tour_ids.size();
    } else {
      r.camera = pool[rng.below(pool.size())];
    }
    in.requests.push_back(r);
  }
  return in;
}

}  // namespace perfbench
