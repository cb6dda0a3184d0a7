// Adversarial footprint corpus and flat-vs-hierarchical identity sweep for
// the binning stage. The corpus targets the pre-hardening failure modes:
// unclamped float→int casts in candidate_cells (UB under UBSan for huge
// rho), silent uint32 CSR prefix-sum wrap, and the int product overflow of
// CellGrid::cell_count(). Runs under the ASan/UBSan and TSan presets via
// the render label.
#include "render/binning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "../test_helpers.h"
#include "render/preprocess.h"

namespace gstg {
namespace {

using testutil::make_camera;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

ProjectedSplat make_splat(Vec2 center, Sym2 cov, float depth = 1.0f, std::uint32_t index = 0,
                          float rho = kThreeSigmaRho) {
  ProjectedSplat s;
  s.center = center;
  s.cov = cov;
  // Singular / non-finite covariances have no inverse; binning must still
  // survive the resulting NaN conic, so feed it one instead of throwing.
  try {
    s.conic = inverse(cov);
  } catch (const std::exception&) {
    s.conic = Sym2{kNaN, kNaN, kNaN};
  }
  s.depth = depth;
  s.opacity = 0.9f;
  s.rho = rho;
  s.index = index;
  return s;
}

/// The adversarial corpus: degenerate conics, non-finite means, huge rho,
/// fully off-screen splats — everything the float→cell math must survive.
std::vector<ProjectedSplat> adversarial_corpus() {
  std::vector<ProjectedSplat> splats;
  std::uint32_t index = 0;
  const auto add = [&](ProjectedSplat s) {
    s.index = index;
    s.depth = 1.0f + 0.25f * static_cast<float>(index);
    ++index;
    splats.push_back(s);
  };
  // Huge rho: AABB extent ~1e15 px, the original unclamped-cast UB trigger.
  add(make_splat({40, 40}, Sym2{1, 0, 1}, 1.0f, 0, 1e30f));
  // Infinite rho: honest full-cover box.
  add(make_splat({40, 40}, Sym2{1, 0, 1}, 1.0f, 0, kInf));
  // NaN rho.
  add(make_splat({40, 40}, Sym2{1, 0, 1}, 1.0f, 0, kNaN));
  // Negative rho: the ellipse test rejects even its own center's cell.
  add(make_splat({40, 40}, Sym2{1, 0, 1}, 1.0f, 0, -1.0f));
  // Non-finite means.
  add(make_splat({kNaN, 40}, Sym2{1, 0, 1}));
  add(make_splat({kInf, 40}, Sym2{1, 0, 1}));
  add(make_splat({-kInf, -kInf}, Sym2{1, 0, 1}));
  // NaN / infinite covariance (conic follows through inverse()).
  add(make_splat({40, 40}, Sym2{kNaN, 0, 1}));
  add(make_splat({40, 40}, Sym2{kInf, 0, kInf}));
  // Singular covariance: inverse() divides by a zero determinant.
  add(make_splat({40, 40}, Sym2{1, 1, 1}));
  add(make_splat({40, 40}, Sym2{0, 0, 0}));
  // Fully off-screen, near and astronomically far.
  add(make_splat({-500, -500}, Sym2{4, 0, 4}));
  add(make_splat({1e30f, 1e30f}, Sym2{4, 0, 4}));
  // Anchor splats with sane footprints so hit sets are non-trivial.
  add(make_splat({10, 10}, Sym2{2, 0, 2}));
  add(make_splat({60, 30}, Sym2{80, 20, 60}));
  add(make_splat({0.5f, 0.5f}, Sym2{0.25f, 0, 0.25f}));
  return splats;
}

/// Canonical per-cell (depth, index) sort — the comparison kVerify uses.
void canonicalize(BinnedSplats& bins, std::span<const ProjectedSplat> splats) {
  const auto less = [&](std::uint32_t a, std::uint32_t b) {
    const std::uint64_t ka = pack_depth_index_key(splats[a].depth, splats[a].index);
    const std::uint64_t kb = pack_depth_index_key(splats[b].depth, splats[b].index);
    return ka != kb ? ka < kb : a < b;
  };
  for (int c = 0; c < bins.grid.cell_count(); ++c) {
    std::sort(bins.splat_ids.begin() + bins.offsets[c],
              bins.splat_ids.begin() + bins.offsets[c + 1], less);
  }
}

void expect_identical(const BinnedSplats& a, const BinnedSplats& b, const char* what) {
  ASSERT_EQ(a.offsets, b.offsets) << what;
  EXPECT_EQ(a.splat_ids, b.splat_ids) << what;
}

// --- candidate_cells hardening -------------------------------------------

TEST(CandidateCellsAdversarial, HugeRhoCoversFullGridWithoutUb) {
  const CellGrid g = CellGrid::over_image(128, 96, 16);
  // Pre-fix this cast was UB (float ~1e15 → int); the clamped math must
  // report the honest answer: the box covers every cell.
  const TileRange r = candidate_cells(make_splat({40, 40}, Sym2{1, 0, 1}, 1, 0, 1e30f), g);
  EXPECT_EQ(r.tx0, 0);
  EXPECT_EQ(r.ty0, 0);
  EXPECT_EQ(r.tx1, g.cells_x);
  EXPECT_EQ(r.ty1, g.cells_y);
}

TEST(CandidateCellsAdversarial, NonFiniteBoxesAreRejectedOrFullCover) {
  const CellGrid g = CellGrid::over_image(128, 96, 16);
  // NaN anywhere in the box → empty range.
  EXPECT_TRUE(candidate_cells(make_splat({kNaN, 40}, Sym2{1, 0, 1}), g).empty());
  EXPECT_TRUE(candidate_cells(make_splat({40, 40}, Sym2{kNaN, 0, 1}), g).empty());
  EXPECT_TRUE(candidate_cells(make_splat({40, 40}, Sym2{1, 0, 1}, 1, 0, kNaN), g).empty());
  // +inf center: the box is [inf, inf] — ordered, past the grid, empty.
  EXPECT_TRUE(candidate_cells(make_splat({kInf, 40}, Sym2{1, 0, 1}), g).empty());
  // Infinite rho: ordered [-inf, +inf] box, honest full cover.
  const TileRange full = candidate_cells(make_splat({40, 40}, Sym2{1, 0, 1}, 1, 0, kInf), g);
  EXPECT_EQ(full.count(), static_cast<long long>(g.cell_count()));
}

TEST(CandidateCellsAdversarial, FarOffscreenSplatsAreEmpty) {
  const CellGrid g = CellGrid::over_image(128, 96, 16);
  EXPECT_TRUE(candidate_cells(make_splat({-500, -500}, Sym2{4, 0, 4}), g).empty());
  EXPECT_TRUE(candidate_cells(make_splat({1e30f, 1e30f}, Sym2{4, 0, 4}), g).empty());
  EXPECT_TRUE(candidate_cells(make_splat({-1e30f, 50}, Sym2{4, 0, 4}), g).empty());
}

TEST(CandidateCellsAdversarial, OneByOneCellGrid) {
  const CellGrid g = CellGrid::over_image(8, 8, 16);  // one cell covers the image
  ASSERT_EQ(g.cell_count(), 1);
  EXPECT_EQ(candidate_cells(make_splat({4, 4}, Sym2{1, 0, 1}), g).count(), 1);
  EXPECT_EQ(candidate_cells(make_splat({4, 4}, Sym2{1, 0, 1}, 1, 0, 1e30f), g).count(), 1);
  EXPECT_TRUE(candidate_cells(make_splat({kNaN, 4}, Sym2{1, 0, 1}), g).empty());
}

// --- libm-free cell indices -----------------------------------------------

/// The libm formulation clamped_cell_floor replaces: floor(v / cs) + bias,
/// clamped into [0, cells] in the float domain.
int floor_reference_cell(float v, float cs, int cells, int bias) {
  const float c = std::floor(v / cs) + static_cast<float>(bias);
  if (!(c > 0.0f)) return 0;
  if (c >= static_cast<float>(cells)) return cells;
  return static_cast<int>(c);
}

/// The candidate range through the libm path: Ellipse::aabb, then
/// floor_reference_cell on each edge.
TileRange floor_reference_range(const ProjectedSplat& s, const CellGrid& g) {
  const Rect box = s.footprint().aabb();
  if (!(box.x0 <= box.x1) || !(box.y0 <= box.y1)) return {};
  const float cs = static_cast<float>(g.cell_size);
  return TileRange{floor_reference_cell(box.x0, cs, g.cells_x, 0),
                   floor_reference_cell(box.y0, cs, g.cells_y, 0),
                   floor_reference_cell(box.x1, cs, g.cells_x, 1),
                   floor_reference_cell(box.y1, cs, g.cells_y, 1)};
}

TEST(CandidateCellsNoLibm, CellFloorMatchesLibmOnEdgeValues) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float normal = std::numeric_limits<float>::min();
  const float fmax = std::numeric_limits<float>::max();
  const std::vector<float> fixed = {
      0.0f, -0.0f, denorm, -denorm, normal / 2, -normal / 2, normal, -normal,
      kNaN, -kNaN, kInf, -kInf, fmax, -fmax, 1e30f, -1e30f,
      2147483648.0f, 2147483904.0f, 4294967296.0f, -2147483648.0f, -4294967296.0f,
      16777216.0f, 16777218.0f, 0.5f, 0.999f, 1.0f, 1.5f, -1.0f};
  std::mt19937 rng(5);
  // Power-of-two sizes and sizes whose reciprocal is inexact (3, 24, 1000).
  for (const int cs : {1, 2, 3, 4, 8, 16, 24, 64, 1000, 1024, 1 << 30}) {
    const float fcs = static_cast<float>(cs);
    // Up to 2^24 cells the reference's float sum floor(t) + 1 is exact.
    for (const int cells : {1, 7, 100, 1 << 24}) {
      std::vector<float> values = fixed;
      // Exact multiples of the cell size and their float neighbours, up to
      // and past the grid edge.
      for (const long long k : {0LL, 1LL, 2LL, 3LL, 99LL, 100LL, 101LL,
                                static_cast<long long>(cells) - 1, static_cast<long long>(cells),
                                static_cast<long long>(cells) + 1}) {
        const float m = static_cast<float>(k) * fcs;
        values.insert(values.end(), {m, std::nextafter(m, kInf), std::nextafter(m, -kInf)});
      }
      // The open interval (-cs, 0).
      values.insert(values.end(), {std::nextafter(-fcs, 0.0f), -0.5f * fcs, -0.25f * fcs,
                                   std::nextafter(-0.0f, -1.0f)});
      // Random bit patterns: every class of float, NaN payloads included.
      for (int i = 0; i < 2000; ++i) {
        values.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(rng())));
      }
      for (const int bias : {0, 1}) {
        for (const float v : values) {
          EXPECT_EQ(clamped_cell_floor(v, fcs, cells, bias),
                    floor_reference_cell(v, fcs, cells, bias))
              << "v=" << v << " (bits " << std::bit_cast<std::uint32_t>(v) << ") cs=" << cs
              << " cells=" << cells << " bias=" << bias;
        }
      }
    }
  }
}

TEST(CandidateCellsNoLibm, AdversarialCorpusMatchesFloorReference) {
  const auto corpus = adversarial_corpus();
  for (const CellGrid& g :
       {CellGrid::over_image(128, 96, 16), CellGrid::over_image(128, 96, 1),
        CellGrid::over_image(128, 96, 64), CellGrid::over_image(128, 96, 24),
        CellGrid::over_image(8, 8, 16)}) {
    for (const ProjectedSplat& s : corpus) {
      EXPECT_EQ(candidate_cells(s, g), floor_reference_range(s, g))
          << "splat " << s.index << " cell size " << g.cell_size;
    }
  }
}

// --- overflow guards ------------------------------------------------------

TEST(BinningOverflow, CsrPrefixSumThrowsTypedErrorInsteadOfWrapping) {
  // 3 cells of ~2^31 entries each: the old uint32 running sum wrapped
  // silently and scattered out of bounds. A real workload of this size is
  // not constructible in a test, so the guard is probed directly.
  const std::vector<std::uint32_t> counts = {0x80000000u, 0x80000000u, 0x80000000u};
  std::vector<std::uint32_t> offsets;
  EXPECT_THROW(csr_offsets_from_counts(counts, offsets), BinningError);

  // Sane counts produce ordinary CSR offsets.
  const std::vector<std::uint32_t> ok = {3, 0, 2};
  EXPECT_EQ(csr_offsets_from_counts(ok, offsets), 5u);
  EXPECT_EQ(offsets, (std::vector<std::uint32_t>{0, 3, 3, 5}));

  // The exact boundary: a total of 2^32 - 1 still fits.
  const std::vector<std::uint32_t> edge = {0xFFFFFFFEu, 1};
  EXPECT_EQ(csr_offsets_from_counts(edge, offsets), 0xFFFFFFFFu);
  const std::vector<std::uint32_t> over = {0xFFFFFFFEu, 2};
  EXPECT_THROW(csr_offsets_from_counts(over, offsets), BinningError);
}

TEST(BinningOverflow, CellCountProductGuarded) {
  // 2e9 x 2e9 cells: each dimension fits an int, the product does not.
  EXPECT_THROW(CellGrid::over_image(2000000000, 2000000000, 1), BinningError);
  // A big-but-valid grid still constructs.
  const CellGrid g = CellGrid::over_image(40000, 40000, 1);
  EXPECT_EQ(g.cell_count(), 1600000000);
}

TEST(BinningOverflow, TileRectFarIndicesStayFinite) {
  // (tx + 1) * tile_size overflowed int for far-out indices; the widened
  // math must produce an ordinary (if empty-intersection) rectangle.
  const int big = std::numeric_limits<int>::max() / 16;
  const Rect r = tile_rect(big, big, 16, 100, 100);
  EXPECT_TRUE(std::isfinite(r.x0));
  EXPECT_TRUE(std::isfinite(r.y0));
  EXPECT_FLOAT_EQ(r.x0, static_cast<float>(static_cast<long long>(big) * 16));
  EXPECT_FLOAT_EQ(r.x1, 100.0f);  // clipped to the image
}

// --- adversarial corpus through both strategies ---------------------------

TEST(BinningAdversarial, CorpusBinsIdenticallyInEveryModeAndBoundary) {
  const std::vector<ProjectedSplat> splats = adversarial_corpus();
  for (const int cell : {16, 64, 256}) {  // 256 > image: a 1×1-cell grid
    const CellGrid g = CellGrid::over_image(128, 96, cell);
    for (const Boundary b : {Boundary::kAabb, Boundary::kObb, Boundary::kEllipse}) {
      RenderCounters cf, ch;
      BinnedSplats flat = bin_splats(splats, g, b, 1, cf, BinningMode::kFlat);
      BinnedSplats hier = bin_splats(splats, g, b, 1, ch, BinningMode::kHierarchical);
      EXPECT_EQ(cf.tile_pairs, ch.tile_pairs) << to_string(b) << " cell " << cell;
      EXPECT_EQ(cf.splats_multi_tile, ch.splats_multi_tile) << to_string(b);
      canonicalize(flat, splats);
      canonicalize(hier, splats);
      expect_identical(flat, hier, to_string(b));
      // The audit mode must agree with itself.
      RenderCounters cv;
      EXPECT_NO_THROW(bin_splats(splats, g, b, 1, cv, BinningMode::kVerify)) << to_string(b);
      EXPECT_EQ(cv.tile_pairs, ch.tile_pairs);
    }
  }
}

TEST(BinningAdversarial, HugeRhoSplatHitsEveryCellUnderAabb) {
  const CellGrid g = CellGrid::over_image(128, 96, 16);
  const std::vector<ProjectedSplat> splats = {make_splat({40, 40}, Sym2{1, 0, 1}, 1, 0, 1e30f)};
  for (const BinningMode m : {BinningMode::kFlat, BinningMode::kHierarchical}) {
    RenderCounters c;
    const BinnedSplats bins = bin_splats(splats, g, Boundary::kAabb, 1, c, m);
    // Pre-fix the unclamped cast produced an empty range and silently
    // dropped a screen-covering splat.
    EXPECT_EQ(c.tile_pairs, static_cast<std::size_t>(g.cell_count())) << to_string(m);
    EXPECT_EQ(bins.splat_ids.size(), static_cast<std::size_t>(g.cell_count()));
  }
}

TEST(BinningAdversarial, NonFiniteSplatsProduceNoPairs) {
  const CellGrid g = CellGrid::over_image(128, 96, 16);
  const std::vector<ProjectedSplat> splats = {
      make_splat({kNaN, 40}, Sym2{1, 0, 1}, 1.0f, 0),
      make_splat({40, kNaN}, Sym2{1, 0, 1}, 1.5f, 1),
      make_splat({kInf, kInf}, Sym2{1, 0, 1}, 2.0f, 2),
      make_splat({40, 40}, Sym2{1, 0, 1}, 2.5f, 3, kNaN),
  };
  for (const BinningMode m : {BinningMode::kFlat, BinningMode::kHierarchical}) {
    for (const Boundary b : {Boundary::kAabb, Boundary::kObb, Boundary::kEllipse}) {
      RenderCounters c;
      bin_splats(splats, g, b, 1, c, m);
      EXPECT_EQ(c.tile_pairs, 0u) << to_string(m) << "/" << to_string(b);
    }
  }
}

TEST(BinningAdversarial, NegativeRhoRejectsEvenItsOwnCellUnderEllipse) {
  const CellGrid g = CellGrid::over_image(128, 96, 16);
  const std::vector<ProjectedSplat> splats = {make_splat({40, 40}, Sym2{1, 0, 1}, 1, 0, -1.0f)};
  for (const BinningMode m : {BinningMode::kFlat, BinningMode::kHierarchical}) {
    RenderCounters ce, ca;
    bin_splats(splats, g, Boundary::kEllipse, 1, ce, m);
    bin_splats(splats, g, Boundary::kAabb, 1, ca, m);
    // The single-cell fast path must not claim a guaranteed hit for rho < 0:
    // flat's ellipse test rejects the center's own cell (min distance 0 > rho).
    EXPECT_EQ(ce.tile_pairs, 0u) << to_string(m);
    EXPECT_EQ(ca.tile_pairs, 1u) << to_string(m);
  }
}

// --- flat vs hierarchical bit-identity sweep ------------------------------

TEST(BinningIdentitySweep, RealWorkloadAcrossBoundariesCellSizesThreads) {
  const Camera cam = make_camera(512, 384);
  const GaussianCloud cloud = testutil::make_random_cloud(2000, 7);
  RenderCounters pc;
  const auto splats = preprocess(cloud, cam, RenderConfig{}, pc);

  for (const int cell : {8, 16, 32, 64}) {
    const CellGrid g = CellGrid::over_image(cam.width(), cam.height(), cell);
    for (const Boundary b : {Boundary::kAabb, Boundary::kObb, Boundary::kEllipse}) {
      RenderCounters cf;
      BinnedSplats flat = bin_splats(splats, g, b, 1, cf, BinningMode::kFlat);
      canonicalize(flat, splats);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        RenderCounters ch;
        BinnedSplats hier = bin_splats(splats, g, b, threads, ch, BinningMode::kHierarchical);
        EXPECT_EQ(cf.tile_pairs, ch.tile_pairs)
            << to_string(b) << " cell " << cell << " threads " << threads;
        EXPECT_EQ(cf.splats_multi_tile, ch.splats_multi_tile);
        EXPECT_GT(ch.coarse_pairs, 0u);
        EXPECT_EQ(cf.coarse_pairs, 0u);
        canonicalize(hier, splats);
        expect_identical(flat, hier, to_string(b));
      }
      // kVerify runs its own flat reference compare across the same sweep.
      RenderCounters cv;
      EXPECT_NO_THROW(bin_splats(splats, g, b, 4, cv, BinningMode::kVerify))
          << to_string(b) << " cell " << cell;
    }
  }
}

TEST(BinningIdentitySweep, HierarchicalReducesBoundaryTestsOnRealWorkload) {
  const Camera cam = make_camera(512, 384);
  const GaussianCloud cloud = testutil::make_random_cloud(2000, 13);
  RenderCounters pc;
  const auto splats = preprocess(cloud, cam, RenderConfig{}, pc);
  const CellGrid g = CellGrid::over_image(cam.width(), cam.height(), 16);
  for (const Boundary b : {Boundary::kAabb, Boundary::kObb, Boundary::kEllipse}) {
    RenderCounters cf, ch;
    bin_splats(splats, g, b, 0, cf, BinningMode::kFlat);
    bin_splats(splats, g, b, 0, ch, BinningMode::kHierarchical);
    EXPECT_LT(ch.boundary_tests, cf.boundary_tests) << to_string(b);
  }
}

// --- mode resolution ------------------------------------------------------

TEST(BinningMode, AutoResolvesByGridSize) {
  const CellGrid small = CellGrid::over_image(256, 192, 16);  // 192 cells
  const CellGrid large = CellGrid::over_image(1024, 768, 16);  // 3072 cells
  ASSERT_LT(small.cell_count(), kAutoHierarchicalMinCells);
  ASSERT_GE(large.cell_count(), kAutoHierarchicalMinCells);
  EXPECT_EQ(resolve_binning_mode(BinningMode::kAuto, small), BinningMode::kFlat);
  EXPECT_EQ(resolve_binning_mode(BinningMode::kAuto, large), BinningMode::kHierarchical);
  EXPECT_EQ(resolve_binning_mode(BinningMode::kFlat, large), BinningMode::kFlat);
  EXPECT_EQ(resolve_binning_mode(BinningMode::kVerify, small), BinningMode::kVerify);
}

TEST(BinningMode, VerifyReportsHierarchicalCounters) {
  const Camera cam = make_camera();
  const GaussianCloud cloud = testutil::make_random_cloud(600, 29);
  RenderCounters pc;
  const auto splats = preprocess(cloud, cam, RenderConfig{}, pc);
  const CellGrid g = CellGrid::over_image(cam.width(), cam.height(), 16);
  RenderCounters ch, cv;
  bin_splats(splats, g, Boundary::kEllipse, 2, ch, BinningMode::kHierarchical);
  bin_splats(splats, g, Boundary::kEllipse, 2, cv, BinningMode::kVerify);
  EXPECT_EQ(cv.boundary_tests, ch.boundary_tests);
  EXPECT_EQ(cv.tile_pairs, ch.tile_pairs);
  EXPECT_EQ(cv.coarse_pairs, ch.coarse_pairs);
  EXPECT_EQ(cv.splats_multi_tile, ch.splats_multi_tile);
}

// --- steady-state reuse ---------------------------------------------------

TEST(BinningScratchReuse, HierarchicalIsAllocationStableAcrossFrames) {
  const Camera cam = make_camera();
  const GaussianCloud cloud = testutil::make_random_cloud(800, 31);
  RenderCounters pc;
  const auto splats = preprocess(cloud, cam, RenderConfig{}, pc);
  const CellGrid g = CellGrid::over_image(cam.width(), cam.height(), 16);

  BinnedSplats out;
  BinningScratch scratch;
  RenderCounters warm;
  bin_splats_into(splats, g, Boundary::kEllipse, 1, warm, out, scratch,
                  BinningMode::kHierarchical);
  const BinnedSplats first = out;
  // Steady state: capacities are warm, results must be reproduced exactly.
  for (int frame = 0; frame < 3; ++frame) {
    RenderCounters c;
    bin_splats_into(splats, g, Boundary::kEllipse, 1, c, out, scratch,
                    BinningMode::kHierarchical);
    EXPECT_EQ(out.offsets, first.offsets);
    EXPECT_EQ(out.splat_ids, first.splat_ids);
    EXPECT_EQ(c.tile_pairs, warm.tile_pairs);
  }
}

TEST(BinningScratchReuse, FlatIsAllocationStableAcrossFrames) {
  const Camera cam = make_camera();
  const GaussianCloud cloud = testutil::make_random_cloud(800, 31);
  RenderCounters pc;
  const auto splats = preprocess(cloud, cam, RenderConfig{}, pc);
  const CellGrid g = CellGrid::over_image(cam.width(), cam.height(), 16);

  BinnedSplats out;
  BinningScratch scratch;
  RenderCounters warm;
  bin_splats_into(splats, g, Boundary::kEllipse, 1, warm, out, scratch, BinningMode::kFlat);
  const BinnedSplats first = out;
  ASSERT_EQ(scratch.hit_cells.size(), 1u);
  const std::uint32_t* records = scratch.hit_cells[0].data();
  const std::uint32_t* ids = out.splat_ids.data();
  // Steady state: the hit records and the CSR keep their storage, and the
  // results are reproduced exactly.
  for (int frame = 0; frame < 3; ++frame) {
    RenderCounters c;
    bin_splats_into(splats, g, Boundary::kEllipse, 1, c, out, scratch, BinningMode::kFlat);
    EXPECT_EQ(out.offsets, first.offsets);
    EXPECT_EQ(out.splat_ids, first.splat_ids);
    EXPECT_EQ(c.tile_pairs, warm.tile_pairs);
    EXPECT_EQ(c.boundary_tests, warm.boundary_tests);
    EXPECT_EQ(scratch.hit_cells[0].data(), records);
    EXPECT_EQ(out.splat_ids.data(), ids);
  }
}

}  // namespace
}  // namespace gstg
