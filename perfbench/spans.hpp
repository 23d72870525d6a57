#pragma once
// In-memory span log. The benchmark wraps every call it makes into a
// simulator layer (trace generation, Session construction and run,
// memory_footprint, result_fingerprint, the experiment runner) in a
// span: name, parent span, start and end on the steady clock. The log
// stays in memory while the workload runs and is written, with each
// span's self time, when the benchmark ends.
//
// All spans are opened and closed on the main thread, so they nest
// strictly: a span's self time is its duration minus the durations of
// its direct children.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
[[nodiscard]] std::uint64_t now_ns() noexcept;

class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::uint64_t t0_ns = 0;
    std::uint64_t t1_ns = 0;
  };

  /// Runs fn() inside a span named `name` and returns the span's
  /// duration in seconds. The span is closed even if fn() throws.
  template <typename F>
  double time(const std::string& name, F&& fn) {
    const int index = open(name);
    struct Closer {
      SpanLog& log;
      int index;
      ~Closer() { log.close(index); }
    };
    {
      Closer closer{*this, index};
      fn();
    }
    const Span& span = spans_[static_cast<std::size_t>(index)];
    return static_cast<double>(span.t1_ns - span.t0_ns) * 1e-9;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Writes every span as JSON (name, parent, start and duration
  /// relative to the first span, self time). Returns false on I/O
  /// failure.
  bool write_json(const std::string& path) const;

 private:
  int open(const std::string& name);
  void close(int index);

  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace perfbench
