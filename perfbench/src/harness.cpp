#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include <sys/resource.h>

namespace perfbench {

std::size_t min_samples_for(double p) {
  if (!(p > 0.0 && p < 1.0)) throw std::invalid_argument("min_samples_for: p must be in (0, 1)");
  return static_cast<std::size_t>(std::ceil(static_cast<double>(kTailSamples) / (1.0 - p) - 1e-9));
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(p >= 0.0 && p <= 1.0)) throw std::invalid_argument("percentile: p must be in [0, 1]");
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double tail_percentile(std::vector<double> values, double p) {
  const std::size_t need = min_samples_for(p);
  if (values.size() < need) {
    char what[96];
    std::snprintf(what, sizeof(what), "p%g needs %zu samples, got %zu", p * 100.0, need,
                  values.size());
    throw std::runtime_error(what);
  }
  return percentile(std::move(values), p);
}

double median_paired_ratio(const std::vector<double>& num, const std::vector<double>& den) {
  if (num.empty() || num.size() != den.size()) {
    throw std::invalid_argument("median_paired_ratio: need equal, non-empty samples");
  }
  std::vector<double> ratios(num.size());
  for (std::size_t i = 0; i < num.size(); ++i) {
    if (!(den[i] > 0.0)) throw std::invalid_argument("median_paired_ratio: denominator <= 0");
    ratios[i] = num[i] / den[i];
  }
  return median(std::move(ratios));
}

bool images_identical(const gstg::Framebuffer& a, const gstg::Framebuffer& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixels().size() * sizeof(gstg::Vec3)) == 0;
}

std::uint64_t image_hash(const gstg::Framebuffer& image) {
  // FNV-1a over 64-bit words: fast enough to run on the completion path of
  // the open loop, and any changed bit changes the hash with overwhelming
  // probability.
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t word) { h = (h ^ word) * kPrime; };
  mix(static_cast<std::uint64_t>(image.width()) << 32 | static_cast<std::uint32_t>(image.height()));
  const auto* bytes = reinterpret_cast<const unsigned char*>(image.pixels().data());
  const std::size_t size = image.pixels().size() * sizeof(gstg::Vec3);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, 8);
    mix(word);
  }
  for (; i < size; ++i) mix(bytes[i]);
  return h;
}

std::vector<std::string> gstg_overrides(char** envp) {
  std::vector<std::string> names;
  for (char** e = envp; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "GSTG_", 5) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e) : std::strlen(*e));
  }
  return names;
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) throw std::runtime_error("getrusage failed");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("metric value is not finite");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::add(const std::string& name, double value, const std::string& unit) {
  if (std::find(names_.begin(), names_.end(), name) != names_.end()) {
    throw std::logic_error("metric reported twice: " + name);
  }
  names_.push_back(name);
  fields_.push_back("\"" + name + "\": {\"value\": " + json_number(value) + ", \"unit\": \"" +
                    unit + "\"}");
}

std::string Report::json(bool correct, std::size_t attempted, std::size_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ", ";
    out += fields_[i];
  }
  return out + "}}";
}

Trace::Trace() : origin_(Clock::now()) {}

double Trace::us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

int Trace::begin(const std::string& name, int parent, std::int64_t op) {
  const double now = us(Clock::now());
  spans_.push_back({name, now, now, parent, op, false});
  return static_cast<int>(spans_.size() - 1);
}

void Trace::end(int id) { spans_.at(static_cast<std::size_t>(id)).end_us = us(Clock::now()); }

int Trace::add_async(const std::string& name, Clock::time_point start, Clock::time_point end,
                     int parent, std::int64_t op) {
  spans_.push_back({name, us(start), us(end), parent, op, true});
  return static_cast<int>(spans_.size() - 1);
}

double Trace::median_ms(const std::string& name) const {
  std::vector<double> ms;
  for (const Span& s : spans_) {
    if (s.name == name) ms.push_back((s.end_us - s.start_us) / 1000.0);
  }
  return ms.empty() ? 0.0 : median(std::move(ms));
}

void Trace::write(const std::string& path, const std::string& metadata) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {" << metadata << "},\n\"traceEvents\": [\n";
  out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
         "\"args\": {\"name\": \"perfbench\"}}";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string args = "\"args\": {\"span\": " + std::to_string(i) +
                             ", \"parent\": " + std::to_string(s.parent) +
                             ", \"op\": " + std::to_string(s.op) + "}";
    std::snprintf(buf, sizeof(buf), "%.3f", s.start_us);
    const std::string ts = buf;
    if (s.async) {
      // Overlapping spans (requests in flight) are async begin/end pairs.
      std::snprintf(buf, sizeof(buf), "%.3f", s.end_us);
      const std::string head = "{\"name\": \"" + s.name +
                               "\", \"cat\": \"async\", \"pid\": 1, \"tid\": 1, \"id\": " +
                               std::to_string(i);
      out << ",\n" << head << ", \"ph\": \"b\", \"ts\": " << ts << ", " << args << "}";
      out << ",\n" << head << ", \"ph\": \"e\", \"ts\": " << buf << "}";
    } else {
      std::snprintf(buf, sizeof(buf), "%.3f", s.end_us - s.start_us);
      out << ",\n{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << ts << ", \"dur\": " << buf << ", " << args << "}";
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace " + path);
}

}  // namespace perfbench
