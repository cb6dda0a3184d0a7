#include "core/pipeline.h"

#include "core/renderer.h"

namespace gstg {

RenderResult render_gstg(const GaussianCloud& cloud, const Camera& camera,
                         const GsTgConfig& config) {
  // One-shot form of the persistent renderer (core/renderer.h): a fresh
  // FrameContext per call, so the two paths are the same code and stay
  // bit-identical by construction.
  const Renderer renderer(config);
  FrameContext ctx;
  renderer.render(cloud, camera, ctx);
  return RenderResult{std::move(ctx.image), ctx.times, ctx.counters, ctx.quality};
}

RenderResult render_baseline(const GaussianCloud& cloud, const Camera& camera,
                             const RenderConfig& config) {
  return render_gstg(cloud, camera, tile_sorted_config(config));
}

}  // namespace gstg
