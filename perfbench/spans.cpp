#include "spans.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int SpanLog::open(const std::string& name) {
  spans_.push_back(Span{name, current_, now_ns(), 0});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void SpanLog::close(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.t1_ns = now_ns();
  current_ = span.parent;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.t1_ns - span.t0_ns;
    }
  }
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().t0_ns;
  std::fprintf(out, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::uint64_t dur = span.t1_ns - span.t0_ns;
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_us\": %.3f, \"dur_us\": %.3f, \"self_us\": %.3f}%s\n",
                 i, span.name.c_str(), span.parent,
                 static_cast<double>(span.t0_ns - origin) * 1e-3,
                 static_cast<double>(dur) * 1e-3,
                 static_cast<double>(dur - child_ns[i]) * 1e-3,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
