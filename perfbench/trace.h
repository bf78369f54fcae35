#ifndef KIMDB_PERFBENCH_TRACE_H_
#define KIMDB_PERFBENCH_TRACE_H_

// Spans recorded by the benchmark around its calls into the engine, kept
// in memory per thread and written out when the run ends, plus a digest of
// the engine's own flight recorder.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Steady-clock nanoseconds since the first call in this process.
int64_t NowNs();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t req = 0;     // request ID shared by every span of one op
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's span buffer. Not thread-safe: one log per thread.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) {}
  uint64_t NewId() { return (static_cast<uint64_t>(thread_) << 40) | ++next_; }
  void Add(const Span& s) { spans_.push_back(s); }
  const std::vector<Span>& spans() const { return spans_; }
  uint32_t thread() const { return thread_; }

 private:
  uint32_t thread_;
  uint64_t next_ = 0;
  std::vector<Span> spans_;
};

/// Span around one scope; free when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent, uint64_t req)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.id = log_->NewId();
    span_.parent = parent;
    span_.req = req;
    span_.name = name;
    span_.start_ns = NowNs();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    span_.end_ns = NowNs();
    log_->Add(span_);
  }
  uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

struct SpanStat {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;  // duration minus the time child spans cover
  double MeanUs() const { return count ? total_ns / count / 1e3 : 0; }
  double MeanSelfUs() const { return count ? self_ns / count / 1e3 : 0; }
};

/// Per span name: count, total and self time over every log.
std::map<std::string, SpanStat> Summarize(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as one JSON object per line; false on I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

/// Count and total duration of each stage's completed spans (kEnd events)
/// the flight recorder holds with timestamps in [t0_ns, t1_ns].
std::map<kimdb::obs::TraceStage, SpanStat> DigestRecorder(
    const kimdb::obs::FlightRecorder& rec, uint64_t t0_ns, uint64_t t1_ns);

}  // namespace perfbench

#endif  // KIMDB_PERFBENCH_TRACE_H_
