// The benchmark's workloads. Why each exists is recorded in README.md and
// BENCHMARK.json.
#pragma once

#include "phases.h"

namespace perfbench {

/// A closed-loop orbit of drjohnson at bench scale: one client renders orbit
/// views one after another, each through Renderer::render and
/// render_baseline, interleaved view by view. The service and temporal
/// layers are bypassed.
Outcome run_orbit(const RunArgs& args);

/// Open-loop Poisson traffic into RenderService: session tours and
/// stateless views of train at small scale.
Outcome run_tour(const RunArgs& args);

/// Per-layer metrics of layers a workload does not drive, reported as 0 so
/// every traced run prints the same metric set.
void add_bypassed_service_layers(Report& report);

}  // namespace perfbench
