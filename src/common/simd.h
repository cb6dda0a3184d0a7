// Portable fixed-width SIMD layer.
//
// VecF32<N>/VecI32<N> are value-semantic lane wrappers. On GCC/Clang they
// hold compiler vector-extension values (__attribute__((vector_size))): lane
// arithmetic is a single vector instruction under the TU's target flags,
// masks are 0/~0 integer vectors straight from vector comparisons, and
// select() is a bitwise blend — no per-lane branches in the hot loops. The
// N == 1 specialization and the non-GNU fallback are ordinary scalar code.
//
// Every operation is an ordinary per-lane IEEE-754 operation in source
// order. The SAME definitions compile into one translation unit per backend
// (scalar / SSE4.2 / AVX2 / NEON, see render/simd_kernels_*.cpp), each built
// with that backend's target flags and with floating-point contraction
// disabled, so the bit pattern of every result is identical across backends
// and identical to the scalar reference. That invariant is what lets
// SimdBackend be a pure performance knob: exact-mode framebuffers are
// bit-identical whichever backend executes (tests/common/test_simd.cpp).
//
// Everything here is ODR-safe by construction: all functions are
// force-inlined so no out-of-line copy compiled with a wider instruction set
// can be picked by the linker and executed on a narrower CPU.
//
// Backend selection is a runtime decision (function-pointer kernel table in
// render/simd_kernels.h): kAuto resolves to the GSTG_SIMD environment
// override when set, otherwise to the widest backend that is compiled in,
// supported by the running CPU, and has passed a bit-identity probe against
// the scalar kernel.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__GNUC__) || defined(__clang__)
#define GSTG_SIMD_INLINE [[gnu::always_inline]] inline
#define GSTG_SIMD_VECEXT 1
#else
#define GSTG_SIMD_INLINE inline
#endif

namespace gstg {

/// Kernel backend. kAuto defers the choice to runtime dispatch; the concrete
/// values name instruction sets a kernel translation unit targets.
enum class SimdBackend : std::uint8_t {
  kAuto = 0,
  kScalar,
  kSse4,
  kAvx2,
  kNeon,
};

/// Exponential evaluation mode of the rasterization kernels. kExact uses
/// exp_exact() below (a lane port of glibc's expf, equal to std::exp on
/// glibc) and preserves the lossless bit-identity invariant; kFast uses the
/// vectorized polynomial fast_exp() (bounded-ULP approximation, see its
/// contract).
enum class ExpMode : std::uint8_t {
  kExact = 0,
  kFast,
};

/// The SIMD knob threaded through RenderConfig / GsTgConfig: which kernel
/// backend to run and how to evaluate the blending exponential.
struct SimdPolicy {
  SimdBackend backend = SimdBackend::kAuto;
  ExpMode exp_mode = ExpMode::kExact;

  constexpr bool operator==(const SimdPolicy&) const = default;
};

/// Lower-case backend name ("auto", "scalar", "sse4", "avx2", "neon").
const char* to_string(SimdBackend backend);

/// Parses a backend name (the GSTG_SIMD vocabulary). Returns kAuto for
/// nullptr/"auto"; throws std::invalid_argument for anything else unknown.
SimdBackend simd_backend_from_string(const char* name);

/// The GSTG_SIMD environment override, parsed. Returns kAuto when the
/// variable is unset; prints a one-time warning and returns kAuto when it is
/// set to an unknown value.
SimdBackend simd_backend_from_env();

/// True when the running CPU can execute the backend's instruction set
/// (kScalar/kAuto always; SSE4.2/AVX2 via cpuid, NEON on AArch64 builds).
bool cpu_supports(SimdBackend backend);

// ---------------------------------------------------------------------------
// Lane wrappers
// ---------------------------------------------------------------------------

#if defined(GSTG_SIMD_VECEXT)

/// N single-precision lanes (N >= 2) as a compiler vector. All arithmetic is
/// per-lane in source order; no operation may be contracted (kernel TUs
/// compile with -ffp-contract=off).
template <int N>
struct VecF32 {
  static_assert(N >= 2 && N <= 16 && (N & (N - 1)) == 0, "unsupported lane count");
  typedef float native __attribute__((vector_size(N * 4)));
  native v;

  // Lane subscripts go through a type-deduced helper: the vector_size
  // attribute with a dependent width only materialises at instantiation, so
  // the class's own member bodies may not subscript `v` directly.
  template <class V>
  GSTG_SIMD_INLINE static void splat_into(V& dst, float x) {
    for (int i = 0; i < N; ++i) dst[i] = x;
  }

  GSTG_SIMD_INLINE static VecF32 broadcast(float x) {
    VecF32 r;
    splat_into(r.v, x);
    return r;
  }
  GSTG_SIMD_INLINE static VecF32 load(const float* p) {
    VecF32 r;
    __builtin_memcpy(&r.v, p, sizeof(r.v));  // unaligned vector load
    return r;
  }
  GSTG_SIMD_INLINE void store(float* p) const { __builtin_memcpy(p, &v, sizeof(v)); }

  GSTG_SIMD_INLINE VecF32 operator+(VecF32 o) const { return {v + o.v}; }
  GSTG_SIMD_INLINE VecF32 operator-(VecF32 o) const { return {v - o.v}; }
  GSTG_SIMD_INLINE VecF32 operator*(VecF32 o) const { return {v * o.v}; }
  GSTG_SIMD_INLINE VecF32 operator/(VecF32 o) const { return {v / o.v}; }
  GSTG_SIMD_INLINE VecF32 operator-() const { return {-v}; }
};

/// Scalar (one-lane) specialization: plain float arithmetic, the reference
/// semantics every wider width must reproduce bit-for-bit.
template <>
struct VecF32<1> {
  float v[1];

  GSTG_SIMD_INLINE static VecF32 broadcast(float x) { return {{x}}; }
  GSTG_SIMD_INLINE static VecF32 load(const float* p) { return {{p[0]}}; }
  GSTG_SIMD_INLINE void store(float* p) const { p[0] = v[0]; }

  GSTG_SIMD_INLINE VecF32 operator+(VecF32 o) const { return {{v[0] + o.v[0]}}; }
  GSTG_SIMD_INLINE VecF32 operator-(VecF32 o) const { return {{v[0] - o.v[0]}}; }
  GSTG_SIMD_INLINE VecF32 operator*(VecF32 o) const { return {{v[0] * o.v[0]}}; }
  GSTG_SIMD_INLINE VecF32 operator/(VecF32 o) const { return {{v[0] / o.v[0]}}; }
  GSTG_SIMD_INLINE VecF32 operator-() const { return {{-v[0]}}; }
};

/// N 32-bit integer lanes (mask values and fast_exp exponent assembly).
template <int N>
struct VecI32 {
  static_assert(N >= 2 && N <= 16 && (N & (N - 1)) == 0, "unsupported lane count");
  typedef std::int32_t native __attribute__((vector_size(N * 4)));
  native v;

  template <class V>
  GSTG_SIMD_INLINE static void splat_into(V& dst, std::int32_t x) {
    for (int i = 0; i < N; ++i) dst[i] = x;
  }

  GSTG_SIMD_INLINE static VecI32 broadcast(std::int32_t x) {
    VecI32 r;
    splat_into(r.v, x);
    return r;
  }
  GSTG_SIMD_INLINE VecI32 operator+(VecI32 o) const { return {v + o.v}; }
  GSTG_SIMD_INLINE VecI32 operator<<(int s) const { return {v << s}; }
};

template <>
struct VecI32<1> {
  std::int32_t v[1];

  GSTG_SIMD_INLINE static VecI32 broadcast(std::int32_t x) { return {{x}}; }
  GSTG_SIMD_INLINE VecI32 operator+(VecI32 o) const { return {{v[0] + o.v[0]}}; }
  GSTG_SIMD_INLINE VecI32 operator<<(int s) const {
    return {{static_cast<std::int32_t>(static_cast<std::uint32_t>(v[0]) << s)}};
  }
};

/// Per-lane mask: 0 / ~0 integer lanes, the direct result type of vector
/// comparisons. Blends against it are bitwise — no per-lane branching.
template <int N>
struct Mask {
  typedef std::int32_t native __attribute__((vector_size(N * 4)));
  native m;

  GSTG_SIMD_INLINE Mask operator&(Mask o) const { return {m & o.m}; }
  GSTG_SIMD_INLINE Mask operator|(Mask o) const { return {m | o.m}; }
  GSTG_SIMD_INLINE Mask operator!() const { return {~m}; }

  template <class V>
  GSTG_SIMD_INLINE static std::int32_t lane_impl(const V& mm, int i) {
    return mm[i];
  }

  GSTG_SIMD_INLINE bool lane(int i) const { return lane_impl(m, i) != 0; }
  GSTG_SIMD_INLINE int count() const {
    int c = 0;
    for (int i = 0; i < N; ++i) c += lane_impl(m, i) != 0 ? 1 : 0;
    return c;
  }
  /// Horizontal "any lane set": pairwise OR-reduction (log2 N vector ops +
  /// one extract) — cheap enough for a per-block skip test in hot loops.
  /// Deduced-type helper for the same reason as lane_impl.
  template <class V>
  GSTG_SIMD_INLINE static std::int32_t or_reduce(const V& v) {
    if constexpr (N == 4) {
      V t = v | __builtin_shufflevector(v, v, 2, 3, 0, 1);
      t = t | __builtin_shufflevector(t, t, 1, 0, 3, 2);
      return lane_impl(t, 0);
    } else if constexpr (N == 8) {
      V t = v | __builtin_shufflevector(v, v, 4, 5, 6, 7, 0, 1, 2, 3);
      t = t | __builtin_shufflevector(t, t, 2, 3, 0, 1, 6, 7, 4, 5);
      t = t | __builtin_shufflevector(t, t, 1, 0, 3, 2, 5, 4, 7, 6);
      return lane_impl(t, 0);
    } else {
      std::int32_t a = 0;
      for (int i = 0; i < N; ++i) a |= lane_impl(v, i);
      return a;
    }
  }

  GSTG_SIMD_INLINE bool any() const { return or_reduce(m) != 0; }
};

template <>
struct Mask<1> {
  std::int32_t m[1];

  GSTG_SIMD_INLINE Mask operator&(Mask o) const { return {{m[0] & o.m[0]}}; }
  GSTG_SIMD_INLINE Mask operator|(Mask o) const { return {{m[0] | o.m[0]}}; }
  GSTG_SIMD_INLINE Mask operator!() const { return {{~m[0]}}; }
  GSTG_SIMD_INLINE bool lane(int) const { return m[0] != 0; }
  GSTG_SIMD_INLINE int count() const { return m[0] != 0 ? 1 : 0; }
  GSTG_SIMD_INLINE bool any() const { return m[0] != 0; }
};

// Comparisons. Note the NaN semantics are exactly those of the scalar
// operators — kernels that mirror scalar guard expressions (e.g.
// `q > q_max || q < 0`) keep identical behaviour on non-finite lanes.
template <int N>
GSTG_SIMD_INLINE Mask<N> cmp_gt(VecF32<N> a, VecF32<N> b) {
  if constexpr (N == 1) {
    return Mask<1>{{a.v[0] > b.v[0] ? -1 : 0}};
  } else {
    return {a.v > b.v};
  }
}
template <int N>
GSTG_SIMD_INLINE Mask<N> cmp_lt(VecF32<N> a, VecF32<N> b) {
  if constexpr (N == 1) {
    return Mask<1>{{a.v[0] < b.v[0] ? -1 : 0}};
  } else {
    return {a.v < b.v};
  }
}
template <int N>
GSTG_SIMD_INLINE Mask<N> cmp_le(VecF32<N> a, VecF32<N> b) {
  if constexpr (N == 1) {
    return Mask<1>{{a.v[0] <= b.v[0] ? -1 : 0}};
  } else {
    return {a.v <= b.v};
  }
}

/// Bitwise blend: c ? a : b per lane. Exactly reproduces the scalar ternary
/// for every payload (including NaN bit patterns) — no arithmetic involved.
template <int N>
GSTG_SIMD_INLINE VecF32<N> select(Mask<N> c, VecF32<N> a, VecF32<N> b) {
  if constexpr (N == 1) {
    return VecF32<1>{{c.m[0] != 0 ? a.v[0] : b.v[0]}};
  } else {
    typedef typename Mask<N>::native iv;
    const iv ai = (iv)a.v;  // GCC vector casts reinterpret the bits
    const iv bi = (iv)b.v;
    const iv r = (ai & c.m) | (bi & ~c.m);
    return {(typename VecF32<N>::native)r};
  }
}

/// std::fabs per lane (sign-bit clear; identical for every input incl. NaN).
template <int N>
GSTG_SIMD_INLINE VecF32<N> abs_lanes(VecF32<N> x) {
  if constexpr (N == 1) {
    return VecF32<1>{{std::fabs(x.v[0])}};
  } else {
    typedef typename Mask<N>::native iv;
    return {(typename VecF32<N>::native)(((iv)x.v) & 0x7fffffff)};
  }
}

/// Truncating float->int32 conversion per lane (inputs must be in range,
/// like a scalar static_cast).
template <int N>
GSTG_SIMD_INLINE VecI32<N> convert_to_i32(VecF32<N> x) {
  if constexpr (N == 1) {
    return VecI32<1>{{static_cast<std::int32_t>(x.v[0])}};
  } else {
    return {__builtin_convertvector(x.v, typename VecI32<N>::native)};
  }
}

/// Bit reinterpretation int32 -> float per lane.
template <int N>
GSTG_SIMD_INLINE VecF32<N> bitcast_f32(VecI32<N> x) {
  if constexpr (N == 1) {
    return VecF32<1>{{std::bit_cast<float>(x.v[0])}};
  } else {
    return {(typename VecF32<N>::native)x.v};
  }
}

/// Mask reinterpreted as integer lanes (0 / -1) — the building block for
/// branch-free counting: accumulate `acc + as_i32(mask)` per block (one
/// vector add), then reduce once per tile with -hsum(acc).
template <int N>
GSTG_SIMD_INLINE VecI32<N> as_i32(Mask<N> m) {
  if constexpr (N == 1) {
    return VecI32<1>{{m.m[0]}};
  } else {
    return {m.m};
  }
}

#else  // !GSTG_SIMD_VECEXT — portable loop fallback (scalar backend only)

template <int N>
struct VecF32 {
  static_assert(N >= 1 && N <= 16, "unsupported lane count");
  float v[N];

  GSTG_SIMD_INLINE static VecF32 broadcast(float x) {
    VecF32 r;
    for (int i = 0; i < N; ++i) r.v[i] = x;
    return r;
  }
  GSTG_SIMD_INLINE static VecF32 load(const float* p) {
    VecF32 r;
    for (int i = 0; i < N; ++i) r.v[i] = p[i];
    return r;
  }
  GSTG_SIMD_INLINE void store(float* p) const {
    for (int i = 0; i < N; ++i) p[i] = v[i];
  }
  GSTG_SIMD_INLINE VecF32 operator+(VecF32 o) const {
    VecF32 r;
    for (int i = 0; i < N; ++i) r.v[i] = v[i] + o.v[i];
    return r;
  }
  GSTG_SIMD_INLINE VecF32 operator-(VecF32 o) const {
    VecF32 r;
    for (int i = 0; i < N; ++i) r.v[i] = v[i] - o.v[i];
    return r;
  }
  GSTG_SIMD_INLINE VecF32 operator*(VecF32 o) const {
    VecF32 r;
    for (int i = 0; i < N; ++i) r.v[i] = v[i] * o.v[i];
    return r;
  }
  GSTG_SIMD_INLINE VecF32 operator/(VecF32 o) const {
    VecF32 r;
    for (int i = 0; i < N; ++i) r.v[i] = v[i] / o.v[i];
    return r;
  }
  GSTG_SIMD_INLINE VecF32 operator-() const {
    VecF32 r;
    for (int i = 0; i < N; ++i) r.v[i] = -v[i];
    return r;
  }
};

template <int N>
struct VecI32 {
  static_assert(N >= 1 && N <= 16, "unsupported lane count");
  std::int32_t v[N];

  GSTG_SIMD_INLINE static VecI32 broadcast(std::int32_t x) {
    VecI32 r;
    for (int i = 0; i < N; ++i) r.v[i] = x;
    return r;
  }
  GSTG_SIMD_INLINE VecI32 operator+(VecI32 o) const {
    VecI32 r;
    for (int i = 0; i < N; ++i) r.v[i] = v[i] + o.v[i];
    return r;
  }
  GSTG_SIMD_INLINE VecI32 operator<<(int s) const {
    VecI32 r;
    for (int i = 0; i < N; ++i)
      r.v[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(v[i]) << s);
    return r;
  }
};

template <int N>
struct Mask {
  std::int32_t m[N];

  GSTG_SIMD_INLINE Mask operator&(Mask o) const {
    Mask r;
    for (int i = 0; i < N; ++i) r.m[i] = m[i] & o.m[i];
    return r;
  }
  GSTG_SIMD_INLINE Mask operator|(Mask o) const {
    Mask r;
    for (int i = 0; i < N; ++i) r.m[i] = m[i] | o.m[i];
    return r;
  }
  GSTG_SIMD_INLINE Mask operator!() const {
    Mask r;
    for (int i = 0; i < N; ++i) r.m[i] = ~m[i];
    return r;
  }
  GSTG_SIMD_INLINE bool lane(int i) const { return m[i] != 0; }
  GSTG_SIMD_INLINE int count() const {
    int c = 0;
    for (int i = 0; i < N; ++i) c += m[i] != 0 ? 1 : 0;
    return c;
  }
  GSTG_SIMD_INLINE bool any() const {
    bool a = false;
    for (int i = 0; i < N; ++i) a = a || (m[i] != 0);
    return a;
  }
};

template <int N>
GSTG_SIMD_INLINE Mask<N> cmp_gt(VecF32<N> a, VecF32<N> b) {
  Mask<N> r;
  for (int i = 0; i < N; ++i) r.m[i] = a.v[i] > b.v[i] ? -1 : 0;
  return r;
}
template <int N>
GSTG_SIMD_INLINE Mask<N> cmp_lt(VecF32<N> a, VecF32<N> b) {
  Mask<N> r;
  for (int i = 0; i < N; ++i) r.m[i] = a.v[i] < b.v[i] ? -1 : 0;
  return r;
}
template <int N>
GSTG_SIMD_INLINE Mask<N> cmp_le(VecF32<N> a, VecF32<N> b) {
  Mask<N> r;
  for (int i = 0; i < N; ++i) r.m[i] = a.v[i] <= b.v[i] ? -1 : 0;
  return r;
}
template <int N>
GSTG_SIMD_INLINE VecF32<N> select(Mask<N> c, VecF32<N> a, VecF32<N> b) {
  VecF32<N> r;
  for (int i = 0; i < N; ++i) r.v[i] = c.m[i] != 0 ? a.v[i] : b.v[i];
  return r;
}
template <int N>
GSTG_SIMD_INLINE VecF32<N> abs_lanes(VecF32<N> x) {
  VecF32<N> r;
  for (int i = 0; i < N; ++i) r.v[i] = std::fabs(x.v[i]);
  return r;
}
template <int N>
GSTG_SIMD_INLINE VecI32<N> convert_to_i32(VecF32<N> x) {
  VecI32<N> r;
  for (int i = 0; i < N; ++i) r.v[i] = static_cast<std::int32_t>(x.v[i]);
  return r;
}
template <int N>
GSTG_SIMD_INLINE VecF32<N> bitcast_f32(VecI32<N> x) {
  VecF32<N> r;
  for (int i = 0; i < N; ++i) r.v[i] = std::bit_cast<float>(x.v[i]);
  return r;
}
template <int N>
GSTG_SIMD_INLINE VecI32<N> as_i32(Mask<N> m) {
  VecI32<N> r;
  for (int i = 0; i < N; ++i) r.v[i] = m.m[i];
  return r;
}

#endif  // GSTG_SIMD_VECEXT

// ------ width-independent derived operations -------------------------------

/// std::min(a, b) per lane, replicating its exact ordering semantics
/// ((b < a) ? b : a) including NaN propagation through the comparison.
template <int N>
GSTG_SIMD_INLINE VecF32<N> min_std(VecF32<N> a, VecF32<N> b) {
  return select(cmp_lt(b, a), b, a);
}
/// std::max(a, b) per lane ((a < b) ? b : a).
template <int N>
GSTG_SIMD_INLINE VecF32<N> max_std(VecF32<N> a, VecF32<N> b) {
  return select(cmp_lt(a, b), b, a);
}
/// std::clamp(v, lo, hi) per lane ((v < lo) ? lo : (hi < v) ? hi : v).
template <int N>
GSTG_SIMD_INLINE VecF32<N> clamp_std(VecF32<N> x, VecF32<N> lo, VecF32<N> hi) {
  return select(cmp_lt(x, lo), lo, select(cmp_lt(hi, x), hi, x));
}
/// std::sqrt per lane (libm call; used outside the innermost hot loops).
template <int N>
GSTG_SIMD_INLINE VecF32<N> sqrt_lanes(VecF32<N> x) {
  VecF32<N> r;
  for (int i = 0; i < N; ++i) r.v[i] = std::sqrt(x.v[i]);
  return r;
}
/// Cache prefetch hint for data a loop will read shortly (no-op where the
/// compiler has no builtin).
GSTG_SIMD_INLINE void prefetch(const void* p) {
#if defined(GSTG_SIMD_VECEXT)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}
/// Horizontal sum of integer lanes (reduction, once per tile — not hot).
template <int N>
GSTG_SIMD_INLINE std::int64_t hsum(VecI32<N> x) {
  std::int64_t s = 0;
  for (int i = 0; i < N; ++i) s += x.v[i];
  return s;
}

// ---------------------------------------------------------------------------
// fast_exp
// ---------------------------------------------------------------------------

/// Vectorized single-precision exponential (Cephes-style range reduction +
/// degree-5 polynomial, 2^n scaling through exponent-field assembly).
///
/// Contract (verified empirically in tests/common/test_simd.cpp over a dense
/// sample of the full input range):
///   - valid for all finite inputs; the argument is clamped to
///     [-87.336544, 88.376259] (127.5 ln 2 at the top, so the 2^n exponent
///     scale never reaches inf) — the result never overflows and never
///     underflows below the smallest normal.
///   - maximum error vs the correctly-rounded std::expf: <= 8 ULP
///     (measured < 3 ULP; the bound leaves slack for libm/rounding-mode
///     variation across platforms).
///   - NaN lanes map to the smallest in-range result (~1.2e-38) instead of
///     propagating — keeps the exponent assembly below free of undefined
///     float->int casts. Only discarded (masked-out) lanes ever carry NaN in
///     the kernels.
/// fast_exp is only reachable through ExpMode::kFast — the default kExact
/// path uses exp_exact() and stays bit-identical to the scalar renderer.
template <int N>
GSTG_SIMD_INLINE VecF32<N> fast_exp(VecF32<N> x) {
  const VecF32<N> lo = VecF32<N>::broadcast(-87.336544f);
  const VecF32<N> hi = VecF32<N>::broadcast(88.376259f);  // 127.5 ln 2
  x = clamp_std(x, lo, hi);
  x = select(cmp_le(x, hi), x, lo);  // NaN (unordered) lanes -> lo

  // n = round-to-nearest-even(x / ln 2) via the 1.5 * 2^23 shifter trick
  // (|x / ln2| < 128 << 2^22, so the add is exact in the integer window).
  const VecF32<N> log2e = VecF32<N>::broadcast(1.44269504088896341f);
  const VecF32<N> shifter = VecF32<N>::broadcast(12582912.0f);  // 1.5 * 2^23
  const VecF32<N> nf = (x * log2e + shifter) - shifter;

  // r = x - n * ln2, in two steps for extra precision.
  const VecF32<N> ln2_hi = VecF32<N>::broadcast(0.693359375f);
  const VecF32<N> ln2_lo = VecF32<N>::broadcast(-2.12194440e-4f);
  VecF32<N> r = x - nf * ln2_hi;
  r = r - nf * ln2_lo;

  // exp(r) ~= 1 + r + r^2 * P(r) on [-ln2/2, ln2/2] (Cephes expf minimax).
  const VecF32<N> c0 = VecF32<N>::broadcast(1.9875691500e-4f);
  const VecF32<N> c1 = VecF32<N>::broadcast(1.3981999507e-3f);
  const VecF32<N> c2 = VecF32<N>::broadcast(8.3334519073e-3f);
  const VecF32<N> c3 = VecF32<N>::broadcast(4.1665795894e-2f);
  const VecF32<N> c4 = VecF32<N>::broadcast(1.6666665459e-1f);
  const VecF32<N> c5 = VecF32<N>::broadcast(5.0000001201e-1f);
  VecF32<N> p = c0;
  p = p * r + c1;
  p = p * r + c2;
  p = p * r + c3;
  p = p * r + c4;
  p = p * r + c5;
  const VecF32<N> result = p * (r * r) + r + VecF32<N>::broadcast(1.0f);

  // Scale by 2^n: build the IEEE-754 exponent field directly.
  const VecI32<N> n = convert_to_i32(nf);
  const VecI32<N> bits = (n + VecI32<N>::broadcast(127)) << 23;
  return result * bitcast_f32(bits);
}

// ---------------------------------------------------------------------------
// exp_exact
// ---------------------------------------------------------------------------

namespace exp_exact_detail {

/// Port of glibc's expf (sysdeps/ieee754/flt-32/e_expf.c, non-FMA build):
/// exp(x) = 2^(k/32) * 2^(r/32) with k = round(x * 32 / ln 2), the 2^(i/32)
/// table stored as uint64(2^(i/32)) - (i << 47) so that adding k << 47
/// assembles the full scale, and a degree-3 polynomial in r, all in double.
inline constexpr std::uint64_t kTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540};
inline constexpr double kInvLn2N = 0x1.71547652b82fep+0 * 32;
inline constexpr double kShift = 0x1.8p+52;  // z + kShift rounds z to an integer
inline constexpr double kC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
inline constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
inline constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32;
/// The port is only used on [kLo, 0]; it is exhaustively checked against
/// std::exp there (tests/common/test_exp_exhaustive.cpp).
inline constexpr float kLo = -16.0f;

/// One lane of the port, operation for operation the vector body below.
GSTG_SIMD_INLINE float lane(float x) {
  const double z = kInvLn2N * static_cast<double>(x);
  const double kd_shifted = z + kShift;
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd_shifted);
  const double r = z - (kd_shifted - kShift);
  const double s = std::bit_cast<double>(kTable[ki % 32] + (ki << 47));
  const double p = kC0 * r + kC1;
  const double r2 = r * r;
  const double y = p * r2 + (kC2 * r + 1.0);
  return static_cast<float>(y * s);
}

#if defined(GSTG_SIMD_VECEXT)
/// The same operations on compiler vectors: DV/UV hold as many double/uint64
/// lanes as FV holds floats. (Type parameters rather than dependent vector
/// typedefs, so the lane subscripts resolve at instantiation.)
template <class DV, class UV, class FV>
GSTG_SIMD_INLINE void lanes(const FV& x, FV& out) {
  const DV z = __builtin_convertvector(x, DV) * kInvLn2N;
  const DV kd_shifted = z + kShift;
  const UV ki = (UV)kd_shifted;  // GCC vector casts reinterpret the bits
  const DV r = z - (kd_shifted - kShift);
  UV t;
  for (std::size_t i = 0; i < sizeof(UV) / sizeof(std::uint64_t); ++i) t[i] = kTable[ki[i] % 32];
  const DV s = (DV)(t + (ki << 47));
  const DV p = r * kC0 + kC1;
  const DV r2 = r * r;
  const DV y = p * r2 + (r * kC2 + 1.0);
  out = __builtin_convertvector(y * s, FV);
}
#endif

}  // namespace exp_exact_detail

/// Bit-exact vectorized exponential: every lane equals the scalar port of
/// glibc's expf on [-16, 0] and std::exp elsewhere (NaN included), so the
/// result is identical on every backend, scalar included. On glibc the port
/// equals std::exp on all of [-16, 0] (checked exhaustively), which makes
/// ExpMode::kExact bit-identical to a per-lane std::exp renderer; the
/// blending kernels only feed it x >= -0.5 * 2 ln(255 opacity). Callers keep
/// discarded lanes in range (e.g. select them to 0) so the std::exp fallback
/// stays off the hot path.
template <int N>
GSTG_SIMD_INLINE VecF32<N> exp_exact(VecF32<N> x) {
  namespace d = exp_exact_detail;
  VecF32<N> y;
#if defined(GSTG_SIMD_VECEXT)
  if constexpr (N >= 2) {
    typedef double dv __attribute__((vector_size(N * 8)));
    typedef std::uint64_t uv __attribute__((vector_size(N * 8)));
    d::lanes<dv, uv>(x.v, y.v);
  } else
#endif
  {
    for (int i = 0; i < N; ++i) y.v[i] = d::lane(x.v[i]);
  }
  const VecF32<N> lo = VecF32<N>::broadcast(d::kLo);
  const Mask<N> in_range = cmp_le(lo, x) & cmp_le(x, VecF32<N>::broadcast(0.0f));
  if ((!in_range).any()) {
    for (int i = 0; i < N; ++i) {
      if (!in_range.lane(i)) y.v[i] = std::exp(x.v[i]);
    }
  }
  return y;
}

}  // namespace gstg
