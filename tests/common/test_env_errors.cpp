// Malformed-environment corpus: numeric env overrides must validate the
// entire value. GSTG_THREADS=abc used to silently fall back to hardware
// concurrency and GSTG_THREADS=8garbage used to be accepted as 8; both are
// now errors that name the variable, and so is a GSTG_SCALE other than
// bench/small/full. The four mode knobs resolve through
// one strict parser (resolve_from_env) that throws ConfigError likewise; a
// SIMD backend the build or CPU lacks fails config validation.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/runconfig.h"
#include "core/gstg_config.h"
#include "core/renderer.h"
#include "render/simd_kernels.h"
#include "service/render_service.h"
#include "test_helpers.h"

namespace gstg {
namespace {

using testutil::EnvGuard;

/// The thrown message must name the variable and echo the value.
void expect_env_error(const char* name, const char* value, std::size_t fallback = 3) {
  try {
    (void)env_positive_size(name, fallback);
    FAIL() << name << "=" << value << " should be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(name), std::string::npos) << message;
    EXPECT_NE(message.find(value), std::string::npos) << message;
  }
}

TEST(EnvErrors, ThreadsCorpusRejected) {
  EnvGuard guard("GSTG_THREADS");
  for (const char* bad : {"abc", "8garbage", "0", "-3", "", " 8", "8 ", "+4", "4.5", "0x8"}) {
    guard.set(bad);
    EXPECT_THROW((void)worker_thread_count(), std::invalid_argument) << "value '" << bad << "'";
  }
}

TEST(EnvErrors, ThreadsErrorNamesVariableAndValue) {
  EnvGuard guard("GSTG_THREADS");
  guard.set("8garbage");
  expect_env_error("GSTG_THREADS", "8garbage");
}

TEST(EnvErrors, ThreadsValidValuesAccepted) {
  EnvGuard guard("GSTG_THREADS");
  guard.set("8");
  EXPECT_EQ(worker_thread_count(), 8u);
  guard.set("1");
  EXPECT_EQ(worker_thread_count(), 1u);
  guard.unset();
  EXPECT_GE(worker_thread_count(), 1u);  // hardware fallback
}

TEST(EnvErrors, ThreadsOverflowRejected) {
  EnvGuard guard("GSTG_THREADS");
  guard.set("99999999999999999999999999");
  EXPECT_THROW((void)worker_thread_count(), std::invalid_argument);
}

TEST(EnvErrors, EnvPositiveSizeFallsBackOnlyWhenUnset) {
  EnvGuard guard("GSTG_TEST_KNOB");
  guard.unset();
  EXPECT_EQ(env_positive_size("GSTG_TEST_KNOB", 42), 42u);
  guard.set("7");
  EXPECT_EQ(env_positive_size("GSTG_TEST_KNOB", 42), 7u);
  guard.set("7junk");
  expect_env_error("GSTG_TEST_KNOB", "7junk", 42);
}

TEST(EnvErrors, ScaleNamesAccepted) {
  EnvGuard guard("GSTG_SCALE");
  guard.unset();
  EXPECT_EQ(run_scale_from_env().gaussian_divisor, RunScale{}.gaussian_divisor);
  guard.set("bench");
  EXPECT_EQ(run_scale_from_env().resolution_divisor, 4);
  EXPECT_EQ(run_scale_from_env().gaussian_divisor, 16);
  guard.set("small");
  EXPECT_EQ(run_scale_from_env().resolution_divisor, 8);
  EXPECT_EQ(run_scale_from_env().gaussian_divisor, 64);
  guard.set("full");
  EXPECT_TRUE(run_scale_from_env().is_full());
}

TEST(EnvErrors, ScaleCorpusRejected) {
  // A typo used to fall back to the bench scale: GSTG_SCALE=smal silently
  // ran 16x the Gaussians of the smoke scale.
  EnvGuard guard("GSTG_SCALE");
  for (const char* bad : {"", "smal", "SMALL", "Full", "bench ", " small", "paper"}) {
    guard.set(bad);
    try {
      (void)run_scale_from_env();
      ADD_FAILURE() << "GSTG_SCALE='" << bad << "' should be rejected";
    } catch (const ConfigError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("GSTG_SCALE"), std::string::npos) << message;
      EXPECT_NE(message.find(std::string("'") + bad + "'"), std::string::npos) << message;
      EXPECT_NE(message.find("expected one of bench/small/full"), std::string::npos) << message;
    }
  }
}

/// One mode-knob value: `expected` is the mode name the matching config
/// field must resolve to, or nullptr when the value must be rejected.
/// `label`, when set, names the case in place of a host-dependent value.
struct KnobCase {
  const char* var;
  const char* value;
  const char* expected;
  const char* label = nullptr;
};

// Stable test names: gtest would otherwise print the struct's raw bytes.
void PrintTo(const KnobCase& knob, std::ostream* os) { *os << knob.var << "=" << knob.value; }

const char* resolved_field(const GsTgConfig& config, const std::string& var) {
  if (var == "GSTG_PIPELINE") return to_string(config.pipeline);
  if (var == "GSTG_RESIDENCY") return to_string(config.residency);
  if (var == "GSTG_SIMD") return to_string(config.simd.backend);
  return to_string(config.temporal);
}

/// The widest verified backend's name, which GSTG_SIMD must accept.
KnobCase widest_simd_case() {
  const char* widest = to_string(widest_verified_backend());
  return KnobCase{"GSTG_SIMD", widest, widest, "widest"};
}

class ResolveFromEnvTest : public ::testing::TestWithParam<KnobCase> {};

TEST_P(ResolveFromEnvTest, AppliesValidValuesAndRejectsUnknownOnes) {
  const KnobCase& knob = GetParam();
  EnvGuard guard(knob.var);
  guard.set(knob.value);
  if (knob.expected != nullptr) {
    const GsTgConfig resolved = resolve_from_env(GsTgConfig{});
    EXPECT_STREQ(resolved_field(resolved, knob.var), knob.expected);
    return;
  }
  try {
    (void)resolve_from_env(GsTgConfig{});
    FAIL() << knob.var << "=" << knob.value << " should be rejected";
  } catch (const ConfigError& e) {
    // Names the variable, echoes the value and lists the accepted values
    // (the default among them).
    const std::string message = e.what();
    EXPECT_NE(message.find(knob.var), std::string::npos) << message;
    EXPECT_NE(message.find(std::string("'") + knob.value + "'"), std::string::npos) << message;
    EXPECT_NE(message.find(std::string("expected one of ")), std::string::npos) << message;
    EXPECT_NE(message.find(resolved_field(GsTgConfig{}, knob.var)), std::string::npos)
        << message;
  }
  EXPECT_THROW((void)resolve_from_env(GsTgConfig{}), std::invalid_argument);
  guard.unset();
  const GsTgConfig defaults;
  EXPECT_STREQ(resolved_field(resolve_from_env(defaults), knob.var),
               resolved_field(defaults, knob.var));
}

INSTANTIATE_TEST_SUITE_P(
    ModeKnobs, ResolveFromEnvTest,
    ::testing::Values(KnobCase{"GSTG_PIPELINE", "exact", "exact"},
                      KnobCase{"GSTG_PIPELINE", "sortless", "sortless"},
                      KnobCase{"GSTG_PIPELINE", "verify", "verify"},
                      KnobCase{"GSTG_PIPELINE", "definitely-not-a-mode", nullptr},
                      KnobCase{"GSTG_RESIDENCY", "float32", "float32"},
                      KnobCase{"GSTG_RESIDENCY", "compressed", "compressed"},
                      KnobCase{"GSTG_RESIDENCY", "verify", "verify"},
                      KnobCase{"GSTG_RESIDENCY", "bogus", nullptr},
                      KnobCase{"GSTG_TEMPORAL", "off", "off"},
                      KnobCase{"GSTG_TEMPORAL", "reuse", "reuse"},
                      KnobCase{"GSTG_TEMPORAL", "verify", "verify"},
                      KnobCase{"GSTG_TEMPORAL", "verify ", nullptr},
                      KnobCase{"GSTG_SIMD", "auto", "auto"},
                      KnobCase{"GSTG_SIMD", "scalar", "scalar"}, widest_simd_case(),
                      KnobCase{"GSTG_SIMD", "sse9000", nullptr},
                      KnobCase{"GSTG_SIMD", "", nullptr},
                      KnobCase{"GSTG_SIMD", "AVX2", nullptr}),
    [](const ::testing::TestParamInfo<KnobCase>& knob_info) {
      const KnobCase& knob = knob_info.param;
      std::string name =
          std::string(knob.var + 5) + "_" + (knob.label != nullptr ? knob.label : knob.value);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return knob.expected != nullptr ? name : name + "_rejected";
    });

TEST(EnvErrors, UnavailableSimdBackendRejectedAtConstruction) {
  const SimdBackend missing = testutil::first_unavailable_backend();
  if (missing == SimdBackend::kAuto) GTEST_SKIP() << "every SIMD backend is available";
  GsTgConfig config;
  config.simd.backend = missing;
  EXPECT_THROW(config.validate(), ConfigError) << to_string(missing);
  EXPECT_THROW(Renderer{config}, ConfigError);
  ServiceConfig service;
  service.render = config;
  EXPECT_THROW(RenderService{service}, ConfigError);

  // Through the environment the name parses, and validation rejects it.
  EnvGuard guard("GSTG_SIMD");
  guard.set(to_string(missing));
  EXPECT_EQ(resolve_from_env(GsTgConfig{}).simd.backend, missing);
  EXPECT_THROW(RenderService{ServiceConfig{}}, ConfigError);
}

}  // namespace
}  // namespace gstg
