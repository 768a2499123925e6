#pragma once
// Benchmark-owned wall-clock spans (the traced run's layer split).
//
// The benchmark records a span around every call it makes into a layer of
// the program: name ("<layer>.<call>"), start, end, the enclosing span and
// a run id (one run = one freshly built stack). Spans stay in memory and
// are written out as JSON lines when the benchmark ends. A layer's self
// time is the duration of its spans minus the part covered by their child
// spans. The program's own trace::Tracer is never attached.
//
// With recording disabled (the untraced run) open/close are a branch each.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace hsbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanLog {
 public:
  struct Span {
    const char* name;  ///< string literal, "<layer>.<call>"
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index of the enclosing span, -1 at top level
    std::uint32_t run;
  };

  SpanLog() : origin_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  void set_run(std::uint32_t run) noexcept { run_ = run; }

  std::int32_t open(const char* name) {
    if (!enabled_) return -1;
    const auto id = std::int32_t(spans_.size());
    spans_.push_back(
        {name, now_ns(), -1, stack_.empty() ? -1 : stack_.back(), run_});
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[std::size_t(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Total seconds and count of the spans named `name` in `run`.
  struct Total {
    double seconds = 0.0;
    std::size_t count = 0;
  };
  Total total(const char* name, std::uint32_t run) const {
    Total t;
    for (const Span& s : spans_) {
      if (s.run == run && std::strcmp(s.name, name) == 0) {
        t.seconds += double(s.end_ns - s.start_ns) * 1e-9;
        ++t.count;
      }
    }
    return t;
  }

  /// Self seconds per layer (span-name prefix up to the first '.') in `run`.
  std::map<std::string, double> self_seconds_by_layer(std::uint32_t run) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[std::size_t(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.run != run) continue;
      const char* dot = std::strchr(s.name, '.');
      const std::string layer =
          dot ? std::string(s.name, std::size_t(dot - s.name)) : s.name;
      self[layer] += double(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return self;
  }

  /// One JSON object per span; false if the file cannot be written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"run\":%u}\n",
                   i, s.name, (long long)s.start_ns, (long long)s.end_ns,
                   s.parent, s.run);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::uint32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t id_;
};

}  // namespace hsbench
