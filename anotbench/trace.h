#pragma once

// In-memory span recorder for the traced benchmark run. Spans are opened
// and closed around calls into AnoT's public functions from the benchmark
// itself; nothing inside the library is instrumented.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace anotbench {

class Tracer {
 public:
  using SpanId = uint32_t;
  static constexpr SpanId kNone = UINT32_MAX;
  /// Arrival id for spans outside the per-arrival loop.
  static constexpr int64_t kNoArrival = -1;

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span; `name` must be a string literal (it is stored as is).
  SpanId Begin(const char* name, SpanId parent = kNone,
               int64_t arrival = kNoArrival) {
    spans_.push_back(Span{name, parent, arrival, Now(), -1});
    return static_cast<SpanId>(spans_.size() - 1);
  }
  /// Closes span `id` and returns its duration in seconds.
  double End(SpanId id) {
    Span& s = spans_[id];
    s.end_ns = Now();
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  /// Sum of the durations of every span called `name`, in seconds.
  double TotalSeconds(const std::string& name) const {
    int64_t ns = 0;
    for (const Span& s : spans_) {
      if (name == s.name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  size_t Count(const std::string& name) const {
    size_t n = 0;
    for (const Span& s : spans_) n += name == s.name;
    return n;
  }
  size_t size() const { return spans_.size(); }

  /// Writes every span as CSV (id, parent, arrival, name, start and end in
  /// ns since the tracer was created). Returns false on an I/O error.
  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "id,parent,arrival,name,start_ns,end_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu,%lld,%lld,%s,%lld,%lld\n", i,
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   static_cast<long long>(s.arrival), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(out) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    const char* name;
    SpanId parent;
    int64_t arrival;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace anotbench
