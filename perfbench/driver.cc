// KIMDB served benchmark driver.
//
//   kimdb_perfbench --workload <oo1_served|hierarchy_scan|scan_under_write>
//                   --seed <n> --seconds <s> --trace <0|1> --dir <work dir>
//   kimdb_perfbench --selftest --seed <n>
//
// Generates the workload from the seed, loads it into a file-backed
// Database with default options, serves it through net::Server and drives
// it from closed-loop net::Client connections, checking every answer
// against the generator's oracle. --trace 0 prints the end-to-end metrics;
// --trace 1 prints the per-layer metrics and writes the spans to the work
// directory. The last stdout line is the JSON result.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen.h"
#include "report.h"
#include "served.h"
#include "trace.h"

namespace perfbench {
namespace {

using kimdb::obs::MetricsSnapshot;
using kimdb::obs::TraceStage;

constexpr int kMaxConnections = 4;  // closed-loop connections, at most
// setup_s is the median of at least kMinSetups set-ups, repeated until
// kMinSetupSeconds have passed (at most kMaxSetups).
constexpr size_t kMinSetups = 9;
constexpr size_t kMaxSetups = 31;
constexpr double kMinSetupSeconds = 5.0;
// Latency samples each connection has room for per measured second, ten
// times the fastest rate seen (see ClientResult).
constexpr double kSampleCapacityPerSecond = 20000;
constexpr double kWarmupSeconds = 1.5;
// Sample floors for the percentiles reported.
constexpr size_t kMinP99Samples = 1000;
constexpr size_t kMinP90Samples = 100;

// The end-to-end metrics of the result line, in BENCHMARK.json order.
const std::vector<std::string> kEndToEnd = {
    "setup_s",     "ops_per_s",   "get_p50_us",  "lookup_p50_us",
    "scan_p50_ms", "scan_p90_ms", "rss_peak_mb", "space_amp"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--dir") {
      a->dir = v;
    } else {
      return false;
    }
  }
  return a->selftest || a->seconds > 0;
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

double Div(double a, double b) { return b != 0 ? a / b : 0; }


/// Latency samples (us) of one request class over every client, of one
/// window or of all (`window` < 0).
std::vector<double> Samples(
    const std::vector<std::unique_ptr<ClientResult>>& rs, ReqClass c,
    int window = -1) {
  std::vector<double> out;
  for (const auto& r : rs) {
    for (const Sample& x : r->samples) {
      if (x.cls == static_cast<uint8_t>(c) &&
          (window < 0 || x.window == window)) {
        out.push_back(x.us);
      }
    }
  }
  return out;
}

/// Median over the measured windows of each window's q-quantile of one
/// request class; 0 without samples.
double WindowedQuantile(const std::vector<std::unique_ptr<ClientResult>>& rs,
                        ReqClass c, double q) {
  std::vector<double> per_window;
  for (size_t w = 0; w < kWindows; ++w) {
    std::vector<double> v = Samples(rs, c, static_cast<int>(w));
    if (!v.empty()) per_window.push_back(Quantile(&v, q));
  }
  return per_window.empty() ? 0 : Median(&per_window);
}

/// Samples of one request class in its emptiest measured window.
size_t FewestInAWindow(const std::vector<std::unique_ptr<ClientResult>>& rs,
                       ReqClass c) {
  std::array<size_t, kWindows> n{};
  for (const auto& r : rs) {
    for (const Sample& x : r->samples) {
      if (x.cls == static_cast<uint8_t>(c)) ++n[x.window];
    }
  }
  return *std::min_element(n.begin(), n.end());
}

template <typename F>
double Sum(const std::vector<std::unique_ptr<ClientResult>>& rs, F f) {
  double s = 0;
  for (const auto& r : rs) s += static_cast<double>(f(*r));
  return s;
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics_.push_back({name, value, unit, samples});
  }
  /// Adds the q-quantile of `v`, unless `v` is short of its sample floor.
  void Quantile(const std::string& name, std::vector<double> v, double q,
                const std::string& unit, double scale, size_t min_samples) {
    if (v.size() < min_samples) {
      Short(name, std::to_string(v.size()) + " samples, needs " +
                      std::to_string(min_samples));
      return;
    }
    size_t n = v.size();
    Add(name, perfbench::Quantile(&v, q) * scale, unit, n);
  }
  /// Adds the median over the measured windows of each window's
  /// q-quantile, unless a window has no sample.
  void Windowed(const std::string& name,
                const std::vector<std::unique_ptr<ClientResult>>& rs,
                ReqClass c, double q, const std::string& unit,
                double scale) {
    if (FewestInAWindow(rs, c) == 0) {
      Short(name, "a window without samples");
      return;
    }
    Add(name, WindowedQuantile(rs, c, q) * scale, unit,
        Samples(rs, c).size());
  }
  std::vector<Metric>& metrics() { return metrics_; }
  std::vector<std::string>& errors() { return errors_; }
  std::vector<std::string>& notes() { return notes_; }

 private:
  /// A gated metric that cannot be reported fails the run; any other is
  /// left out with a note.
  void Short(const std::string& name, const std::string& why) {
    const bool gated =
        std::find(kEndToEnd.begin(), kEndToEnd.end(), name) != kEndToEnd.end();
    (gated ? errors_ : notes_).push_back(name + ": " + why);
  }

  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
};

void AddPerLayer(Report* rep, const MetricsSnapshot& before,
                 const MetricsSnapshot& after,
                 const std::map<TraceStage, SpanStat>& stages,
                 const std::map<std::string, SpanStat>& spans,
                 const std::vector<std::unique_ptr<ClientResult>>& clients,
                 double traced_ops_per_s, double untraced_ops_per_s) {
  MetricsSnapshot d = kimdb::obs::MetricsRegistry::Diff(before, after);
  auto v = [&d](const char* name) {
    return static_cast<double>(d.Value(name));
  };
  auto hist_mean = [&d](const char* name) { return d.Hist(name).Mean(); };
  auto stage_us = [&stages](TraceStage s) {
    auto it = stages.find(s);
    return it == stages.end() ? 0.0 : it->second.MeanUs();
  };
  auto span_us = [&spans](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.MeanUs();
  };
  const double queries = v("query.executed");
  const double commits = v("txn.committed");
  const double rows = Sum(clients, [](const ClientResult& r) {
    return r.measure_rows;
  });
  const double lookup_rows = Sum(clients, [](const ClientResult& r) {
    return r.measure_lookup_rows;
  });

  rep->Add("net.rtt_us",
           Div(Sum(clients, [](const ClientResult& r) {
                 return r.measure_round_trip_ns;
               }),
               Sum(clients, [](const ClientResult& r) {
                 return r.measure_round_trips;
               })) / 1e3,
           "us");
  rep->Add("net.server_us", hist_mean("net.request_ns") / 1e3, "us");
  rep->Add("net.pipeline_depth_mean", hist_mean("net.pipeline_depth"),
           "count");
  rep->Add("net.bytes_out_per_req", Div(v("net.bytes_out"), v("net.requests")),
           "B/req");
  rep->Add("lang.parse_us", span_us("lang.ParseStatement"), "us");
  rep->Add("query.plan_us", span_us("query.Plan"), "us");
  rep->Add("query.cost_based_frac",
           Div(v("optimizer.cost_based_plans"), queries), "frac");
  rep->Add("query.est_rows_error_pct",
           hist_mean("optimizer.est_rows_error_pct"), "%");
  rep->Add("query.auto_analyze_runs", v("optimizer.auto_analyze_runs"),
           "count");
  rep->Add("exec.execute_us", span_us("exec.Execute"), "us");
  rep->Add("exec.scanned_per_result", Div(v("query.objects_scanned"), rows),
           "rows/row");
  rep->Add("exec.ns_per_scanned",
           Div(static_cast<double>(d.Hist("query.exec_ns").sum),
               v("query.objects_scanned")),
           "ns/row");
  rep->Add("exec.ref_fetches_per_query", Div(v("query.ref_fetches"), queries),
           "count/query");
  rep->Add("object.get_us", span_us("object.Get"), "us");
  rep->Add("object.cache_hit_rate",
           Div(v("objectstore.cache_hits"),
               v("objectstore.cache_hits") + v("objectstore.cache_misses")),
           "frac");
  rep->Add("object.class_write_waits", v("objectstore.class_write_waits"),
           "count");
  rep->Add("object.latch_wait_us", stage_us(TraceStage::kLatchWait), "us");
  rep->Add("object.versions_per_chain",
           Div(static_cast<double>(after.Value("objectstore.versions_entries")),
               static_cast<double>(after.Value("objectstore.versions_chains"))),
           "count");
  rep->Add("index.probes_per_lookup",
           Div(v("query.index_probes"), v("optimizer.index_plans_chosen")),
           "count");
  rep->Add("index.candidates_per_result",
           Div(v("query.index_candidates"), lookup_rows), "rows/row");
  rep->Add("txn.commit_us", stage_us(TraceStage::kCommit), "us");
  rep->Add("txn.commit_clock_us", stage_us(TraceStage::kCommitClock), "us");
  rep->Add("txn.mvcc_publish_us", stage_us(TraceStage::kMvccPublish), "us");
  rep->Add("txn.snapshot_conflicts", v("txn.snapshot_conflicts"), "count");
  rep->Add("wal.append_us", stage_us(TraceStage::kWalAppend), "us");
  rep->Add("wal.sync_wait_us", stage_us(TraceStage::kWalSyncWait), "us");
  rep->Add("wal.fsync_us", stage_us(TraceStage::kWalFsync), "us");
  rep->Add("wal.fsyncs_per_commit", Div(v("wal.fsyncs"), commits), "count");
  rep->Add("wal.group_commit_batch_mean", hist_mean("wal.group_commit_batch"),
           "count");
  rep->Add("wal.bytes_per_commit", Div(v("wal.file_bytes"), commits), "B");
  rep->Add("bp.hit_rate",
           Div(v("bufferpool.hits"),
               v("bufferpool.hits") + v("bufferpool.misses")),
           "frac");
  rep->Add("bp.misses_per_query", Div(v("bufferpool.misses"), queries),
           "count/query");
  rep->Add("bp.readahead_useful_frac",
           Div(v("bufferpool.readahead_hits"), v("bufferpool.readahead_issued")),
           "frac");
  rep->Add("bp.evictions_per_query", Div(v("bufferpool.evictions"), queries),
           "count/query");
  rep->Add("bp.shard_wait_us", hist_mean("bufferpool.shard_wait_ns") / 1e3,
           "us");

  // Client time no layer span covers: every served round trip against the
  // engine time of the requests it carried. Queries and commits take their
  // served flight-recorder means; GET, SET, BEGIN and parse take the replay
  // span means (the recorder has no stage for them).
  auto n = [&clients](ReqClass c) {
    return Sum(clients, [c](const ClientResult& r) {
      return r.measure_requests[static_cast<size_t>(c)];
    });
  };
  double query_us = stage_us(TraceStage::kQuery);
  if (query_us == 0) query_us = span_us("exec.Execute");
  double commit_us = stage_us(TraceStage::kCommit);
  if (commit_us == 0) commit_us = span_us("txn.Commit");
  const double covered_us =
      n(ReqClass::kGet) * span_us("object.Get") +
      (n(ReqClass::kLookup) + n(ReqClass::kScan)) *
          (span_us("lang.ParseStatement") + query_us) +
      n(ReqClass::kSet) * span_us("txn.Set") +
      n(ReqClass::kBegin) * span_us("txn.Begin") +
      n(ReqClass::kCommit) * commit_us;
  const double client_us = Sum(clients, [](const ClientResult& r) {
                             return r.measure_round_trip_ns;
                           }) / 1e3;
  rep->Add("trace.unattributed_frac", 1 - Div(covered_us, client_us), "frac");
  rep->Add("trace.overhead_frac", 1 - Div(traced_ops_per_s, untraced_ops_per_s),
           "frac");
}

int Run(const Args& a) {
  std::optional<Workload> w = ParseWorkload(a.workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const Dataset data = Generate(*w, a.seed);
  std::filesystem::create_directories(a.dir);

  RunContext ctx;
  ctx.nproc = Nproc();
  ctx.cpu_model = CpuModel();
  ctx.build_type = KIMDB_PERFBENCH_BUILD_TYPE;
  ctx.seed = a.seed;
  ctx.workload = WorkloadName(*w);
  ctx.db_filesystem = FilesystemOf(a.dir);
  ctx.flush_policy = "fdatasync per WAL group commit";
  // Every workload's connections keep a CPU busy with scans (PartId
  // lookups scan too while writers keep version chains), so half the CPUs
  // stay free for the I/O thread, the clients and the short requests; a
  // run that saturates every CPU measures scheduler ticks and neighbours.
  ctx.connections = std::clamp(ctx.nproc / 2, 1, kMaxConnections);
  if (*w == Workload::kScanUnderWrite) {
    ctx.connections = std::max(ctx.connections, 2);  // a scanner and a writer
  }
  ctx.server_workers = static_cast<int>(kimdb::net::ServerOptions{}.workers);
  ctx.seconds = a.seconds;
  ctx.trace = a.trace;
  const int conns = ctx.connections;

  // Sample buffers are allocated before the resident-set baseline below.
  std::vector<std::unique_ptr<ClientResult>> clients;
  for (int c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<ClientResult>(
        c + 1, static_cast<size_t>(a.seconds * kSampleCapacityPerSecond)));
  }

  // Set-up: build the served database from the generated inputs, timing
  // each build. An untraced run builds and discards it several times
  // first; the last build serves the run.
  std::vector<double> setup_s;
  auto setup = [&](Served* out) {
    const std::string path = a.dir + "/db" + std::to_string(setup_s.size());
    const int64_t t0 = NowNs();
    kimdb::Status st = Setup(data, path, a.trace, out);
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    }
    return st.ok();
  };
  const int64_t setup_start = NowNs();
  auto more_setups = [&] {
    const size_t done = setup_s.size() + 1;  // counting the serving one
    if (a.trace) return false;
    if (done < kMinSetups) return true;
    return done < kMaxSetups &&
           (NowNs() - setup_start) / 1e9 < kMinSetupSeconds;
  };
  while (more_setups()) {
    Served discard;
    if (!setup(&discard)) return 2;
    (void)Shutdown(&discard);
    RemoveDbFiles(discard.path);
  }
  // rss_peak_mb counts what the serving database adds to the process: the
  // memory the discarded set-ups freed goes back to the kernel, and the
  // peak restarts from the resident set of the generated inputs.
  malloc_trim(0);
  const bool rss_reset = ResetPeakRss();
  const double rss_base_mb = CurrentRssMb();
  Served s;
  if (!setup(&s)) return 2;
  const uint64_t db_bytes_loaded = FileBytes(s.path + ".db");

  // Closed-loop clients: warm up, then the measured phase(s).
  Checker check(data, s);
  ClientShared shared;
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back(RunClient, std::cref(data), std::cref(s),
                         std::cref(check), c, conns, &shared,
                         clients[c].get());
  }
  SleepSeconds(kWarmupSeconds);
  kimdb::obs::FlightRecorder& rec = s.db->trace();
  const double measure_s = a.trace ? a.seconds / 2 : a.seconds;
  const MetricsSnapshot before = s.db->metrics().TakeSnapshot();
  const uint64_t rec_t0 = rec.NowNs();
  const CpuTicks ticks0 = ReadCpuTicks();
  const int64_t t_measure = NowNs();
  shared.measure_start_ns = t_measure;
  shared.window_ns = static_cast<int64_t>(measure_s * 1e9 / kWindows);
  shared.spans_on = a.trace;
  shared.phase = kMeasure;
  SleepSeconds(measure_s);
  shared.spans_on = false;
  shared.phase = a.trace ? kUntraced : kStop;
  const int64_t t_untraced = NowNs();
  const uint64_t rec_t1 = rec.NowNs();
  const CpuTicks ticks1 = ReadCpuTicks();
  ctx.steal_frac = Div(static_cast<double>(ticks1.steal - ticks0.steal),
                       static_cast<double>(ticks1.total - ticks0.total));
  const MetricsSnapshot after = s.db->metrics().TakeSnapshot();
  int64_t t_end = t_untraced;
  if (a.trace) {
    rec.set_enabled(false);
    SleepSeconds(a.seconds - measure_s);
    shared.phase = kStop;
    t_end = NowNs();
  }
  for (std::thread& t : threads) t.join();
  const double rss_peak_mb = PeakRssMb() - rss_base_mb;
  const double measured_s = (t_untraced - t_measure) / 1e9;
  const double ops_per_s =
      Sum(clients, [](const ClientResult& r) { return r.requests[kMeasure]; }) /
      measured_s;

  // Traced run: the recorder digest of the traced phase, then an
  // in-process replay of each connection's op stream with a span around
  // every engine call.
  std::map<TraceStage, SpanStat> stages;
  std::vector<std::unique_ptr<ClientResult>> replays;
  const std::string trace_base =
      a.dir + "/trace-" + ctx.workload + "-seed" + std::to_string(a.seed);
  if (a.trace) {
    stages = DigestRecorder(rec, rec_t0, rec_t1);
    std::FILE* f = std::fopen((trace_base + "-recorder.json").c_str(), "w");
    if (f != nullptr) {
      std::string dump = s.db->TraceJson(20000);
      std::fwrite(dump.data(), 1, dump.size(), f);
      std::fclose(f);
    }
    const double replay_s = std::min(2.0, a.seconds / 5);
    for (int c = 0; c < conns; ++c) {
      replays.push_back(std::make_unique<ClientResult>(100 + c, 0));
      Replay(data, &s, check, c, conns, replay_s / conns, 4000,
             replays.back().get());
    }
  }

  // Durability: stop the server, close, reopen from the files and read
  // back every connection's last acked write.
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (auto* group : {&clients, &replays}) {
    for (const auto& r : *group) {
      attempted += r->attempted;
      failed += r->failed;
      errors.insert(errors.end(), r->errors.begin(), r->errors.end());
    }
  }
  // Each connection's last acked served write, then every replay write,
  // which came later and so sets the value of a part both wrote.
  std::map<uint32_t, int64_t> last_writes;
  for (const auto& r : clients) {
    if (r->last_write) {
      last_writes[r->last_write->first] = r->last_write->second;
    }
  }
  for (const auto& r : replays) {
    for (const auto& [part, value] : r->replay_writes) {
      last_writes[part] = value;
    }
  }
  kimdb::Status st = Shutdown(&s);
  if (!st.ok()) {
    ++failed;
    errors.push_back("close: " + st.ToString());
  }
  {
    auto reopened = kimdb::Database::Open(DbOptions(s.path, false));
    ++attempted;
    if (!reopened.ok()) {
      ++failed;
      errors.push_back("reopen: " + reopened.status().ToString());
    } else {
      for (const auto& [part, value] : last_writes) {
        ++attempted;
        auto obj = (*reopened)->store().Get(s.oids[part]);
        if (!obj.ok() || obj->Get(s.schema.x).kind() != kimdb::Value::Kind::kInt ||
            obj->Get(s.schema.x).as_int() != value) {
          ++failed;
          errors.push_back("acked write of part " + std::to_string(part) +
                           " lost across close and reopen");
        }
      }
      // Read-only workloads still check a loaded object survived.
      ++attempted;
      auto obj = (*reopened)->store().Get(s.oids.back());
      if (!obj.ok() || obj->oid() != s.oids.back()) {
        ++failed;
        errors.push_back("loaded object missing after reopen");
      }
      (void)(*reopened)->Close();
    }
  }
  const double space_amp =
      static_cast<double>(FileBytes(s.path + ".db") +
                          FileBytes(s.path + ".wal")) /
      static_cast<double>(data.payload_bytes);
  RemoveDbFiles(s.path);

  Report rep;
  std::vector<std::string> result_names;
  for (size_t c = 0; c < kReqClasses; ++c) {
    std::vector<double> v = Samples(clients, static_cast<ReqClass>(c));
    if (v.empty()) continue;
    const double p50 = Quantile(&v, 0.5), p90 = Quantile(&v, 0.9),
                 p99 = Quantile(&v, 0.99), p999 = Quantile(&v, 0.999);
    std::printf("latency %-7s n=%-7zu p50=%10.1f p90=%10.1f p99=%10.1f "
                "p99.9=%10.1f max=%10.1f us\n",
                ReqClassName(static_cast<ReqClass>(c)), v.size(), p50, p90,
                p99, p999, v.back());
  }
  if (!a.trace) {
    rep.Add("setup_s", Median(&setup_s), "s", setup_s.size());
    std::printf("setup   n=%-7zu min=%.4f max=%.4f s\n", setup_s.size(),
                setup_s.front(), setup_s.back());
    std::vector<double> window_ops;
    for (size_t w = 0; w < kWindows; ++w) {
      window_ops.push_back(Sum(clients, [w](const ClientResult& r) {
                             return r.window_requests[w];
                           }) / (measured_s / kWindows));
    }
    rep.Add("ops_per_s", Median(&window_ops), "1/s");
    if (IsWriterConn(*w, conns - 1, conns)) {
      rep.Add("txn_per_s", Sum(clients, [](const ClientResult& r) {
                             return r.measure_commits;
                           }) / measured_s,
              "1/s");
    }
    rep.Windowed("get_p50_us", clients, ReqClass::kGet, 0.5, "us", 1);
    rep.Quantile("get_p99_us", Samples(clients, ReqClass::kGet), 0.99, "us", 1,
                 kMinP99Samples);
    rep.Windowed("lookup_p50_us", clients, ReqClass::kLookup, 0.5, "us", 1);
    rep.Quantile("lookup_p99_us", Samples(clients, ReqClass::kLookup), 0.99,
                 "us", 1, kMinP99Samples);
    if (IsWriterConn(*w, conns - 1, conns)) {
      rep.Windowed("commit_p50_us", clients, ReqClass::kCommit, 0.5, "us", 1);
      rep.Quantile("commit_p99_us", Samples(clients, ReqClass::kCommit), 0.99,
                   "us", 1, kMinP99Samples);
    }
    rep.Windowed("scan_p50_ms", clients, ReqClass::kScan, 0.5, "ms", 1e-3);
    rep.Quantile("scan_p90_ms", Samples(clients, ReqClass::kScan), 0.9, "ms",
                 1e-3, kMinP90Samples);
    rep.Add("fail_frac", Div(failed, attempted), "frac");
    if (!rss_reset) rep.errors().push_back("rss_peak_mb: cannot reset VmHWM");
    rep.Add("rss_peak_mb", rss_peak_mb, "MiB");
    rep.Add("space_amp", space_amp, "x");
    result_names = kEndToEnd;
  } else {
    auto replay_logs = std::vector<const SpanLog*>{};
    for (const auto& r : replays) replay_logs.push_back(&r->spans);
    std::map<std::string, SpanStat> spans = Summarize(replay_logs);
    const double untraced_ops_per_s =
        Sum(clients,
            [](const ClientResult& r) { return r.requests[kUntraced]; }) /
        ((t_end - t_untraced) / 1e9);
    AddPerLayer(&rep, before, after, stages, spans, clients, ops_per_s,
                untraced_ops_per_s);
    for (const Metric& m : rep.metrics()) result_names.push_back(m.name);

    std::vector<const SpanLog*> logs = replay_logs;
    for (const auto& r : clients) logs.push_back(&r->spans);
    for (const auto& [name, st] : Summarize(logs)) {
      std::printf("span %-22s n=%-8llu mean=%9.1f us  self=%9.1f us\n",
                  name.c_str(), static_cast<unsigned long long>(st.count),
                  st.MeanUs(), st.MeanSelfUs());
    }
    for (const auto& [stage, st] : stages) {
      std::printf("stage %-21s n=%-8llu mean=%9.1f us\n",
                  kimdb::obs::TraceStageName(stage),
                  static_cast<unsigned long long>(st.count), st.MeanUs());
    }
    ++attempted;
    if (WriteSpans(trace_base + "-spans.jsonl", logs)) {
      std::printf("spans written to %s-spans.jsonl\n", trace_base.c_str());
    } else {
      ++failed;
      errors.push_back("could not write spans");
    }
  }
  std::printf("db_bytes_loaded = %llu, payload_bytes = %llu\n",
              static_cast<unsigned long long>(db_bytes_loaded),
              static_cast<unsigned long long>(data.payload_bytes));
  for (const std::string& n : rep.notes()) {
    std::printf("not reported: %s\n", n.c_str());
  }
  for (const std::string& e : rep.errors()) {
    std::fprintf(stderr, "error: %s\n", e.c_str());
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "wrong: %s\n", e.c_str());
  }
  const bool correct = failed == 0 && rep.errors().empty();
  PrintResult(ctx, rep.metrics(), result_names, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --dir <work dir> | --selftest --seed <n>\n",
                 argv[0]);
    return 2;
  }
  if (args.selftest) {
    std::string why;
    bool ok = perfbench::SelfTest(args.seed, &why);
    std::printf("self-test %s%s%s\n", ok ? "passed" : "FAILED: ",
                ok ? "" : why.c_str(), "");
    return ok ? 0 : 1;
  }
  return perfbench::Run(args);
}
