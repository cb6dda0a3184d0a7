// Minimal JSON writer shared by the JSON bench drivers (run_all, bench_*):
// enough structure for the BENCH_*.json records, no dependency. Tracks
// "first member" state so callers just emit key/values.
#pragma once

#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>
#include <string>

#include "common/runconfig.h"

namespace gstg::benchutil {

class JsonWriter {
 public:
  explicit JsonWriter(const std::string& path) : file_(std::fopen(path.c_str(), "w")) {
    if (file_ == nullptr) throw std::runtime_error("bench: cannot open " + path);
  }
  ~JsonWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void open_object() { punctuate("{"); first_ = true; ++depth_; }
  void close_object() { --depth_; newline_indent(); std::fputs("}", file_); first_ = false; }
  void open_array(const std::string& key) { this->key(key); std::fputs("[", file_); first_ = true; ++depth_; }
  void close_array() { --depth_; newline_indent(); std::fputs("]", file_); first_ = false; }
  void open_object(const std::string& key) { this->key(key); std::fputs("{", file_); first_ = true; ++depth_; }

  void value(const std::string& key, const std::string& v) {
    this->key(key);
    std::fprintf(file_, "\"%s\"", escape(v).c_str());
  }
  void value(const std::string& key, double v) {
    this->key(key);
    // Bare inf/nan tokens are not JSON; emit null so the file stays parseable.
    if (std::isfinite(v)) {
      std::fprintf(file_, "%.6g", v);
    } else {
      std::fputs("null", file_);
    }
  }
  /// A number already formatted (e.g. at a table's printed precision).
  void number(const std::string& key, const std::string& token) {
    this->key(key);
    std::fputs(token.c_str(), file_);
  }
  void value(const std::string& key, std::size_t v) {
    this->key(key);
    std::fprintf(file_, "%zu", v);
  }
  void value(const std::string& key, int v) {
    this->key(key);
    std::fprintf(file_, "%d", v);
  }
  void value_bool(const std::string& key, bool v) {
    this->key(key);
    std::fputs(v ? "true" : "false", file_);
  }

  void finish() {
    std::fputs("\n", file_);
    std::fclose(file_);
    file_ = nullptr;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }
  void punctuate(const char* open) {
    if (!first_ && depth_ > 0) std::fputs(",", file_);
    if (depth_ > 0) newline_indent();
    std::fputs(open, file_);
  }
  void key(const std::string& k) {
    if (!first_) std::fputs(",", file_);
    newline_indent();
    std::fprintf(file_, "\"%s\": ", escape(k).c_str());
    first_ = false;
  }
  void newline_indent() {
    std::fputs("\n", file_);
    for (int i = 0; i < depth_; ++i) std::fputs("  ", file_);
  }

  std::FILE* file_;
  bool first_ = true;
  int depth_ = 0;
};

/// The header of a BENCH_*.json record: bench kind, UTC timestamp and the
/// GSTG_SCALE divisors the run used.
inline void write_header(JsonWriter& json, const char* kind) {
  const RunScale scale = run_scale_from_env();
  json.value("bench", kind);
  const std::time_t now = std::time(nullptr);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  json.value("timestamp_utc", stamp);
  json.open_object("scale");
  json.value("resolution_divisor", scale.resolution_divisor);
  json.value("gaussian_divisor", scale.gaussian_divisor);
  json.close_object();
}

}  // namespace gstg::benchutil
