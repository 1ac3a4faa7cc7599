// In-memory span recorder for the traced run: one span per call into a
// layer (name, start, end, parent span, operation id), plus counter deltas
// taken around each operation. Spans are written out as JSON lines when the
// run ends; nothing is recorded when tracing is off.
#ifndef ENGINEBENCH_TRACE_H_
#define ENGINEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace enginebench {

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }

  /// Opens a span and returns its id (-1 when tracing is off).
  int64_t Begin(std::string name, int64_t parent, int64_t op);
  /// Closes span `id`; returns its duration in ns (0 when off).
  int64_t End(int64_t id);
  /// Records a span whose timing is known after the fact (QueryProfile
  /// entries carry a duration, not timestamps): it starts at its parent's
  /// start and lasts `duration_ns`.
  void AddChild(std::string name, int64_t parent, int64_t op,
                int64_t duration_ns);
  /// Attaches a counter delta to span `id`.
  void AddCounter(int64_t id, const char* name, int64_t delta);

  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    int64_t id;
    int64_t parent;
    int64_t op;
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    std::vector<std::pair<const char*, int64_t>> counters;
  };

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace enginebench

#endif  // ENGINEBENCH_TRACE_H_
