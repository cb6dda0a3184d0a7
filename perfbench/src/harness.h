// Measurement plumbing of the perfbench binary: the percentile rule, paired
// ratios, image identity, the ambient-override check, the result record and
// the in-memory span recorder. Nothing here calls into the program's layers
// except to read a Framebuffer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "render/framebuffer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Samples a tail percentile needs beyond it before it is reported.
inline constexpr std::size_t kTailSamples = 10;

/// Smallest sample count whose p-th percentile (p in (0, 1)) has at least
/// kTailSamples samples above it: ceil(kTailSamples / (1 - p)).
[[nodiscard]] std::size_t min_samples_for(double p);

/// Linear-interpolated p-th percentile (p in [0, 1]) of `values`, the
/// "inclusive" definition of Python's statistics.quantiles and numpy's
/// default. Throws std::invalid_argument on an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// percentile() under the tail rule: throws std::runtime_error unless the
/// sample has at least min_samples_for(p) values.
[[nodiscard]] double tail_percentile(std::vector<double> values, double p);

/// Median over i of num[i] / den[i]: a speed ratio from measurements taken
/// side by side, which cancels machine drift that a ratio of two separately
/// taken medians keeps. Throws std::invalid_argument on unequal or empty
/// inputs or a non-positive denominator.
[[nodiscard]] double median_paired_ratio(const std::vector<double>& num,
                                         const std::vector<double>& den);

/// True when both images have the same size and identical pixel bits.
[[nodiscard]] bool images_identical(const gstg::Framebuffer& a, const gstg::Framebuffer& b);

/// 64-bit hash of an image's size and pixel bits.
[[nodiscard]] std::uint64_t image_hash(const gstg::Framebuffer& image);

/// Names of the GSTG_* variables set in `envp` (a null-terminated
/// environment block). Any of them changes what the program renders or how,
/// so perfbench refuses to run while one is set.
[[nodiscard]] std::vector<std::string> gstg_overrides(char** envp);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// One run's result: metrics in the order added, printed as the single JSON
/// line the benchmark contract asks for.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json(bool correct, std::size_t attempted, std::size_t failed) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::string> fields_;
};

/// In-memory span recorder of a traced run. Spans are taken around calls
/// into the program's public functions; written once, at the end, as Chrome
/// trace-event JSON that Perfetto loads.
class Trace {
 public:
  Trace();

  /// Opens a span now and returns its id. `parent` is the id of the
  /// enclosing span (-1 for none); `op` is the frame or request id.
  int begin(const std::string& name, int parent, std::int64_t op);
  /// Closes the span `id` now.
  void end(int id);

  /// Records an async span [start, end) after the fact: one that may
  /// overlap its siblings, such as requests in flight together.
  int add_async(const std::string& name, Clock::time_point start, Clock::time_point end,
                int parent, std::int64_t op);

  /// Median duration in ms of the spans called `name`; 0 when there is none.
  [[nodiscard]] double median_ms(const std::string& name) const;

  /// Writes the spans plus `metadata` (a JSON object body, e.g. the SIMD
  /// backend) to `path`.
  void write(const std::string& path, const std::string& metadata) const;

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
    std::int64_t op;
    bool async;
  };
  [[nodiscard]] double us(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
