// Minimal command-line flag parsing for the example binaries.
//
// Supports --key=value and --flag forms plus positional arguments; unknown
// flags are reported so examples fail loudly on typos. Numeric getters
// parse the *entire* value ("--tile=16x" is an error, not 16) and every
// parse failure names the flag and the offending value, so a mistyped
// invocation dies with an actionable ConfigError (common/runconfig.h)
// instead of an uncaught std::invalid_argument from deep inside std::stoi.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace gstg {

class CliArgs {
 public:
  /// Parses argv. Throws ConfigError on an empty argv.
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const { return flags_.count(key) != 0; }
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  /// Strict numeric getters: the full value must parse (no trailing
  /// garbage, no overflow); throws ConfigError naming the flag
  /// and value. The fallback is returned only when the flag is absent.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;
  /// get_int that additionally rejects negative values — for count-like
  /// flags (--threads, --frames) that would otherwise wrap to a huge
  /// std::size_t at the call site.
  [[nodiscard]] std::size_t get_size(const std::string& key, std::size_t fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }
  [[nodiscard]] const std::string& program() const { return program_; }

  /// Throws ConfigError if any parsed flag is not in `known` (catches typos).
  void require_known(const std::vector<std::string>& known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace gstg
