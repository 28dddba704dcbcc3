#pragma once

// Host-time helpers and the in-memory span recorder for the benchmark's
// traced run.
//
// Spans are recorded only around calls the benchmark itself makes into the
// library (workload root, fleet generate/run, one span per contract device
// instance, one per ladder rung); nothing inside the library is
// instrumented.  A disabled recorder costs one branch per span.  Spans are
// written out once, at exit, as Chrome trace-event JSON ("X" events) with
// the parent span's index in `args`.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `xs` (the mean of the two middle values for an even count);
/// 0 for an empty vector.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

struct Span {
  std::string name;
  std::string tag;  ///< e.g. the device class of a contract device span
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index into the recorder's spans, -1 for a root
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int open(std::string name, std::string tag = {}) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), std::move(tag), now_s(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_s = now_s();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  /// Sum of the durations of every span named `name`.
  double total_s(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.end_s - s.start_s;
    }
    return sum;
  }

  /// Writes Chrome trace-event JSON; returns false if the file cannot be
  /// opened.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                   s.name.c_str(), s.tag.c_str(), (s.start_s - t0) * 1e6,
                   (s.end_s - s.start_s) * 1e6, i, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::string tag = {})
      : rec_(rec), index_(rec.open(std::move(name), std::move(tag))) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

}  // namespace perfbench
