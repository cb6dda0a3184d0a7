#include "common/cli.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>

#include "common/runconfig.h"

namespace gstg {

namespace {

// Strict full-string integer parse. std::stoi would stop at the first
// non-digit ("16x" -> 16) and throw bare std::invalid_argument /
// std::out_of_range with no hint which flag was malformed; here the whole
// value must be one integer and every failure is a ConfigError naming the
// flag and the value.
int parse_flag_int(const std::string& key, const std::string& value) {
  int parsed = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (ec == std::errc::result_out_of_range) {
    throw ConfigError("--" + key + ": integer out of range '" + value + "'");
  }
  if (ec != std::errc() || ptr != end) {
    throw ConfigError("--" + key + ": invalid integer '" + value +
                      "' (expected a whole decimal number)");
  }
  return parsed;
}

// Strict full-string double parse via strtod + end-pointer check
// (std::from_chars<double> is still patchy across standard libraries).
// strtod alone is too permissive for a strict contract: it skips leading
// whitespace and accepts nan/inf and hex floats, none of which belong in a
// numeric flag — restrict the alphabet to plain decimal/scientific forms
// first, matching the integer parser's strictness.
double parse_flag_double(const std::string& key, const std::string& value) {
  if (value.empty()) {
    throw ConfigError("--" + key + ": empty value (expected a number)");
  }
  for (const char c : value) {
    const bool allowed =
        (c >= '0' && c <= '9') || c == '.' || c == '+' || c == '-' || c == 'e' || c == 'E';
    if (!allowed) {
      throw ConfigError("--" + key + ": invalid number '" + value + "'");
    }
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || end == value.c_str()) {
    throw ConfigError("--" + key + ": invalid number '" + value + "'");
  }
  if (errno == ERANGE) {
    throw ConfigError("--" + key + ": number out of range '" + value + "'");
  }
  return parsed;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc < 1) {
    throw ConfigError("CliArgs: empty argv");
  }
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_[arg.substr(2)] = "true";
      } else {
        flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

std::string CliArgs::get(const std::string& key, const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return parse_flag_double(key, it->second);
}

int CliArgs::get_int(const std::string& key, int fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return parse_flag_int(key, it->second);
}

std::size_t CliArgs::get_size(const std::string& key, std::size_t fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const int parsed = parse_flag_int(key, it->second);
  if (parsed < 0) {
    throw ConfigError("--" + key + ": negative value '" + it->second +
                      "' (expected a count >= 0)");
  }
  return static_cast<std::size_t>(parsed);
}

void CliArgs::require_known(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : flags_) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw ConfigError("unknown flag --" + key);
    }
  }
}

}  // namespace gstg
