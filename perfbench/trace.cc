#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::map<std::string, SpanStat> Summarize(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanStat> out;
  for (const SpanLog* log : logs) {
    // Children of a span always live in the same thread's log.
    std::unordered_map<uint64_t, std::vector<const Span*>> children;
    for (const Span& s : log->spans()) {
      if (s.parent != 0) children[s.parent].push_back(&s);
    }
    for (const Span& s : log->spans()) {
      double dur = static_cast<double>(s.end_ns - s.start_ns);
      double covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        std::vector<const Span*>& kids = it->second;
        std::sort(kids.begin(), kids.end(), [](const Span* a, const Span* b) {
          return a->start_ns < b->start_ns;
        });
        // Union of the child intervals, clipped to the parent.
        int64_t cur_lo = 0, cur_hi = -1;
        for (const Span* k : kids) {
          int64_t lo = std::max(k->start_ns, s.start_ns);
          int64_t hi = std::min(k->end_ns, s.end_ns);
          if (hi <= lo) continue;
          if (lo > cur_hi) {
            if (cur_hi > cur_lo) covered += static_cast<double>(cur_hi - cur_lo);
            cur_lo = lo;
            cur_hi = hi;
          } else {
            cur_hi = std::max(cur_hi, hi);
          }
        }
        if (cur_hi > cur_lo) covered += static_cast<double>(cur_hi - cur_lo);
      }
      SpanStat& st = out[s.name];
      ++st.count;
      st.total_ns += dur;
      st.self_ns += dur - covered;
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"req\": %llu, "
                   "\"thread\": %u, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.req), log->thread(),
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

std::map<kimdb::obs::TraceStage, SpanStat> DigestRecorder(
    const kimdb::obs::FlightRecorder& rec, uint64_t t0_ns, uint64_t t1_ns) {
  using kimdb::obs::TraceEventKind;
  using kimdb::obs::TraceStage;
  std::map<TraceStage, SpanStat> out;
  // Exec-op events carry an operator tag, not a duration: pair each end
  // with its thread's begin of the same tag.
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> op_begin;
  for (const kimdb::obs::TraceEvent& e : rec.Snapshot()) {
    if (e.ts_ns < t0_ns || e.ts_ns > t1_ns) continue;
    uint64_t dur = e.arg;
    if (e.stage == TraceStage::kExecOp) {
      auto key = std::make_pair(e.tid, e.arg);
      if (e.kind == TraceEventKind::kBegin) op_begin[key] = e.ts_ns;
      if (e.kind != TraceEventKind::kEnd) continue;
      auto it = op_begin.find(key);
      if (it == op_begin.end()) continue;
      dur = e.ts_ns - it->second;
      op_begin.erase(it);
    } else if (e.kind != TraceEventKind::kEnd) {
      continue;
    }
    SpanStat& st = out[e.stage];
    ++st.count;
    st.total_ns += static_cast<double>(dur);
    st.self_ns += static_cast<double>(dur);
  }
  return out;
}

}  // namespace perfbench
