// Malformed-environment corpus: numeric env overrides must validate the
// entire value. GSTG_THREADS=abc used to silently fall back to hardware
// concurrency and GSTG_THREADS=8garbage used to be accepted as 8; both are
// now errors that name the variable. The four mode knobs resolve through
// one strict parser (resolve_from_env) that throws ConfigError likewise.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/runconfig.h"
#include "core/gstg_config.h"
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

/// One mode-knob value: `expected` is the mode name the matching config
/// field must resolve to, or nullptr when the value must be rejected.
struct KnobCase {
  const char* var;
  const char* value;
  const char* expected;
};

// Stable test names: gtest would otherwise print the struct's raw bytes.
void PrintTo(const KnobCase& knob, std::ostream* os) { *os << knob.var << "=" << knob.value; }

const char* resolved_field(const GsTgConfig& config, const std::string& var) {
  if (var == "GSTG_BINNING") return to_string(config.binning);
  if (var == "GSTG_PIPELINE") return to_string(config.pipeline);
  if (var == "GSTG_RESIDENCY") return to_string(config.residency);
  return to_string(config.temporal);
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
    // Names the variable, echoes the value and lists the accepted values.
    const std::string message = e.what();
    EXPECT_NE(message.find(knob.var), std::string::npos) << message;
    EXPECT_NE(message.find(std::string("'") + knob.value + "'"), std::string::npos) << message;
    EXPECT_NE(message.find("verify"), std::string::npos) << message;
  }
  EXPECT_THROW((void)resolve_from_env(GsTgConfig{}), std::invalid_argument);
  guard.unset();
  const GsTgConfig defaults;
  EXPECT_STREQ(resolved_field(resolve_from_env(defaults), knob.var),
               resolved_field(defaults, knob.var));
}

INSTANTIATE_TEST_SUITE_P(
    ModeKnobs, ResolveFromEnvTest,
    ::testing::Values(KnobCase{"GSTG_BINNING", "flat", "flat"},
                      KnobCase{"GSTG_BINNING", "hierarchical", "hierarchical"},
                      KnobCase{"GSTG_BINNING", "auto", "auto"},
                      KnobCase{"GSTG_BINNING", "verify", "verify"},
                      KnobCase{"GSTG_BINNING", "Flat", nullptr},
                      KnobCase{"GSTG_PIPELINE", "exact", "exact"},
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
                      KnobCase{"GSTG_TEMPORAL", "verify ", nullptr}),
    [](const ::testing::TestParamInfo<KnobCase>& knob_info) {
      std::string name = std::string(knob_info.param.var + 5) + "_" + knob_info.param.value;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return knob_info.param.expected != nullptr ? name : name + "_rejected";
    });

}  // namespace
}  // namespace gstg
