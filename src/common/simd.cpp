#include "common/simd.h"

namespace gstg {

const char* to_string(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kAuto:
      return "auto";
    case SimdBackend::kScalar:
      return "scalar";
    case SimdBackend::kSse4:
      return "sse4";
    case SimdBackend::kAvx2:
      return "avx2";
    case SimdBackend::kNeon:
      return "neon";
  }
  return "auto";
}

bool cpu_supports(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kAuto:
    case SimdBackend::kScalar:
      return true;
    case SimdBackend::kSse4:
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("sse4.2") != 0;
#else
      return false;
#endif
    case SimdBackend::kAvx2:
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
      // __builtin_cpu_supports folds in the xsave/OS-state check for AVX.
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdBackend::kNeon:
#if defined(__aarch64__) || defined(_M_ARM64)
      return true;  // NEON is architecturally guaranteed on AArch64
#else
      return false;
#endif
  }
  return false;
}

}  // namespace gstg
