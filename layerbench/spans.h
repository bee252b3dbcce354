// The benchmark's own span recorder. Spans are recorded from the
// benchmark's files around each call into a simulator layer; nothing under
// src/ is instrumented. A span's layer is its name up to the first '.'
// ("sim.run" -> "sim"), so the layers are the src/ modules plus "bench"
// for the benchmark's own glue.
#pragma once

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace layerbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    double start_us = 0.0;
    double end_us = 0.0;
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string name);
  /// Closes the innermost open span, which must be `index`.
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer in seconds: each span's duration minus the time
  /// its child spans cover, summed by layer.
  std::map<std::string, double> layer_self_seconds() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}), loadable by
  /// Perfetto. `labels` become process metadata (e.g. the XOR kernel).
  void write_chrome_json(
      std::ostream& os,
      const std::vector<std::pair<std::string, std::string>>& labels) const;

 private:
  double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op, which is how the untraced
/// pass runs the same code as the traced one.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name)
      : rec_(rec), index_(rec == nullptr ? -1 : rec->begin(std::move(name))) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->end(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

/// Runs `f` inside a span and returns its result (a prvalue, so members
/// can be initialized in place through it).
template <class F>
auto spanned(SpanRecorder* rec, std::string name, F&& f) {
  ScopedSpan span(rec, std::move(name));
  return f();
}

}  // namespace layerbench
