// Malformed-CLI corpus: the numeric flag getters must parse the entire
// value and reject junk with a ConfigError that names the flag and the
// value — "--tile=16x" used to parse as 16, and "--tile=junk" used to escape
// as a bare std::invalid_argument from std::stoi.
#include "common/cli.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/runconfig.h"

namespace gstg {
namespace {

CliArgs make_args(const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"prog"};
  for (const auto& flag : flags) argv.push_back(flag.c_str());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

/// The thrown message must name the flag and echo the offending value.
template <typename Fn>
void expect_named_error(Fn&& fn, const std::string& flag, const std::string& value) {
  try {
    fn();
    FAIL() << "expected ConfigError for --" << flag << "=" << value;
  } catch (const ConfigError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("--" + flag), std::string::npos) << message;
    EXPECT_NE(message.find(value), std::string::npos) << message;
  }
}

TEST(CliErrors, IntTrailingGarbageRejected) {
  const CliArgs args = make_args({"--tile=16x"});
  expect_named_error([&] { (void)args.get_int("tile", 0); }, "tile", "16x");
}

TEST(CliErrors, IntCorpusRejected) {
  for (const char* bad : {"junk", "", " 16", "16 ", "1.5", "0x10", "+", "-", "--tile"}) {
    const CliArgs args = make_args({std::string("--tile=") + bad});
    EXPECT_THROW((void)args.get_int("tile", 0), ConfigError) << "value '" << bad << "'";
  }
}

TEST(CliErrors, IntOverflowRejected) {
  const CliArgs args = make_args({"--tile=99999999999999999999"});
  expect_named_error([&] { (void)args.get_int("tile", 0); }, "tile", "99999999999999999999");
}

TEST(CliErrors, IntValidValuesParse) {
  const CliArgs args = make_args({"--tile=16", "--offset=-3"});
  EXPECT_EQ(args.get_int("tile", 0), 16);
  EXPECT_EQ(args.get_int("offset", 0), -3);
  EXPECT_EQ(args.get_int("absent", 7), 7);
}

TEST(CliErrors, SizeRejectsNegative) {
  const CliArgs args = make_args({"--threads=-2"});
  expect_named_error([&] { (void)args.get_size("threads", 0); }, "threads", "-2");
}

TEST(CliErrors, SizeValidValuesParse) {
  const CliArgs args = make_args({"--threads=8"});
  EXPECT_EQ(args.get_size("threads", 0), 8u);
  EXPECT_EQ(args.get_size("absent", 3), 3u);
}

TEST(CliErrors, DoubleCorpusRejected) {
  // Includes the strtod-permissive forms the strict contract must reject:
  // nan/inf tokens, hex floats, and leading/trailing whitespace.
  for (const char* bad :
       {"1.5x", "abc", "", "2.5 ", " 2.5", "1,5", "nan", "NAN", "inf", "-inf", "nan(", "0x10",
        "--"}) {
    const CliArgs args = make_args({std::string("--rho=") + bad});
    EXPECT_THROW((void)args.get_double("rho", 0.0), ConfigError) << "value '" << bad << "'";
  }
}

TEST(CliErrors, DoubleNamesFlagAndValue) {
  const CliArgs args = make_args({"--rho=1.5x"});
  expect_named_error([&] { (void)args.get_double("rho", 0.0); }, "rho", "1.5x");
}

TEST(CliErrors, DoubleValidValuesParse) {
  const CliArgs args = make_args({"--rho=0.25", "--exp=1e3", "--neg=-2.5"});
  EXPECT_DOUBLE_EQ(args.get_double("rho", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(args.get_double("exp", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(args.get_double("neg", 0.0), -2.5);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 2.5), 2.5);
}

TEST(CliErrors, DoubleOverflowRejected) {
  const CliArgs args = make_args({"--rho=1e999"});
  EXPECT_THROW((void)args.get_double("rho", 0.0), ConfigError);
}

TEST(CliErrors, UnknownFlagStillRejected) {
  const CliArgs args = make_args({"--tpyo=1"});
  EXPECT_THROW(args.require_known({"typo"}), ConfigError);
}

}  // namespace
}  // namespace gstg
