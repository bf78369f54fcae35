// E7 -- Concurrency control granularity (paper §3.2/§4.2, GARZ88).
//
// The paper calls for concurrency control that accounts for the class
// hierarchy. This benchmark contrasts two write-locking disciplines under
// a multi-threaded read-modify-write mix:
//
//   object-granule -- IX on the class + X per touched object (fine);
//   class-granule  -- X on the whole class per writing transaction
//                     (coarse; what a system without intention locks on
//                     class extents must do).
//
// Expected shape: with 1 thread the two are equal (coarse slightly
// cheaper: fewer lock calls); as threads grow, object-granule throughput
// scales while class-granule serializes all writers on one X lock.

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "obs/metrics.h"
#include "query/query_engine.h"
#include "txn/transaction.h"
#include "workloads/bench_env.h"
#include "workloads/workloads.h"

namespace kimdb {
namespace bench {
namespace {

constexpr size_t kObjects = 4096;
constexpr int kOpsPerTxn = 4;

struct E7Fixture {
  std::unique_ptr<Env> env;
  ClassId cls;
  AttrId counter;
  std::vector<Oid> oids;
  LockManager locks;
  std::unique_ptr<TxnManager> txns;

  E7Fixture() {
    env = Env::Create(16384);
    cls = *env->catalog->CreateClass("Counter", {},
                                     {{"N", Domain::Int()}});
    counter = (*env->catalog->ResolveAttr(cls, "N"))->id;
    BENCH_OK(env->store->EnsureExtent(cls));
    for (size_t i = 0; i < kObjects; ++i) {
      Object obj;
      obj.Set(counter, Value::Int(0));
      BENCH_ASSIGN(oid, env->store->Insert(0, cls, std::move(obj)));
      oids.push_back(oid);
    }
    txns = std::make_unique<TxnManager>(env->store.get(), &locks);
  }
};

E7Fixture* g_fixture = nullptr;

// One read-modify-write transaction touching kOpsPerTxn random objects.
// Returns false if the transaction was a deadlock victim (retried by
// caller).
bool RunTxn(E7Fixture& f, Random& rng, bool coarse) {
  Result<uint64_t> t = f.txns->Begin();
  if (!t.ok()) return false;
  Status st;
  if (coarse) {
    st = f.locks.Lock(*t, LockResource::Class(f.cls), LockMode::kX);
  }
  if (st.ok()) {
    for (int i = 0; i < kOpsPerTxn && st.ok(); ++i) {
      Oid oid = f.oids[rng.Uniform(f.oids.size())];
      Result<Object> obj = f.txns->Get(*t, oid);
      if (!obj.ok()) {
        st = obj.status();
        break;
      }
      obj->Set(f.counter, Value::Int(obj->Get(f.counter).as_int() + 1));
      st = f.txns->Update(*t, *obj);
    }
  }
  if (st.ok()) {
    return f.txns->Commit(*t).ok();
  }
  (void)f.txns->Abort(*t);
  return false;
}

void SetupFixture(const benchmark::State&) {
  if (g_fixture == nullptr) g_fixture = new E7Fixture();
}

void TeardownFixture(const benchmark::State&) {
  delete g_fixture;
  g_fixture = nullptr;
}

void LockingBench(benchmark::State& state, bool coarse) {
  Random rng(1000 + static_cast<uint64_t>(state.thread_index()));
  int64_t committed = 0, retries = 0;
  for (auto _ : state) {
    while (!RunTxn(*g_fixture, rng, coarse)) ++retries;
    ++committed;
  }
  state.counters["committed"] =
      benchmark::Counter(static_cast<double>(committed),
                         benchmark::Counter::kIsRate);
  state.counters["retries"] = static_cast<double>(retries);
  LockManagerStats ls = g_fixture->locks.stats();
  state.counters["lock_waits"] = static_cast<double>(ls.waits);
  state.counters["deadlocks"] = static_cast<double>(ls.deadlocks);
  state.SetLabel(coarse ? "class-granule" : "object-granule");
}

void BM_ObjectGranuleLocking(benchmark::State& state) {
  LockingBench(state, /*coarse=*/false);
}

void BM_ClassGranuleLocking(benchmark::State& state) {
  LockingBench(state, /*coarse=*/true);
}

BENCHMARK(BM_ObjectGranuleLocking)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Setup(SetupFixture)->Teardown(TeardownFixture)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ClassGranuleLocking)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Setup(SetupFixture)->Teardown(TeardownFixture)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

// --- Per-class writer scaling (DESIGN.md §14) -------------------------------
//
// The store serializes physical mutation per *class* (write latch
// stripe), not store-wide. Writers hitting 4 distinct classes should
// scale with threads; the same-class variant isolates what remains when
// all writers contend on one latch (plus object X locks / write-write
// conflicts). `class_write_waits` is the store's contended-latch-acquire
// counter: ~0 for distinct classes, growing with threads for same-class.

constexpr int kWriterClasses = 4;

struct MultiClassFixture {
  std::unique_ptr<Env> env;
  ClassId cls[kWriterClasses];
  AttrId counter[kWriterClasses];
  std::vector<Oid> oids[kWriterClasses];
  LockManager locks;
  std::unique_ptr<TxnManager> txns;

  MultiClassFixture() {
    env = Env::Create(16384);
    for (int c = 0; c < kWriterClasses; ++c) {
      cls[c] = *env->catalog->CreateClass("Counter" + std::to_string(c), {},
                                          {{"N", Domain::Int()}});
      counter[c] = (*env->catalog->ResolveAttr(cls[c], "N"))->id;
      BENCH_OK(env->store->EnsureExtent(cls[c]));
      for (size_t i = 0; i < kObjects / kWriterClasses; ++i) {
        Object obj;
        obj.Set(counter[c], Value::Int(0));
        BENCH_ASSIGN(oid, env->store->Insert(0, cls[c], std::move(obj)));
        oids[c].push_back(oid);
      }
    }
    txns = std::make_unique<TxnManager>(env->store.get(), &locks);
  }
};

MultiClassFixture* g_multi = nullptr;

void SetupMulti(const benchmark::State&) {
  if (g_multi == nullptr) g_multi = new MultiClassFixture();
}

void TeardownMulti(const benchmark::State&) {
  delete g_multi;
  g_multi = nullptr;
}

bool RunMultiTxn(MultiClassFixture& f, Random& rng, int c) {
  Result<uint64_t> t = f.txns->Begin();
  if (!t.ok()) return false;
  Status st;
  for (int i = 0; i < kOpsPerTxn && st.ok(); ++i) {
    Oid oid = f.oids[c][rng.Uniform(f.oids[c].size())];
    Result<Object> obj = f.txns->Get(*t, oid);
    if (!obj.ok()) {
      st = obj.status();
      break;
    }
    obj->Set(f.counter[c], Value::Int(obj->Get(f.counter[c]).as_int() + 1));
    st = f.txns->Update(*t, *obj);
  }
  if (st.ok()) {
    return f.txns->Commit(*t).ok();
  }
  (void)f.txns->Abort(*t);
  return false;
}

void MultiClassBench(benchmark::State& state, bool distinct) {
  MultiClassFixture& f = *g_multi;
  const int c = distinct ? state.thread_index() % kWriterClasses : 0;
  Random rng(2000 + static_cast<uint64_t>(state.thread_index()));
  const uint64_t waits_before = f.env->store->class_write_waits();
  int64_t committed = 0, retries = 0;
  for (auto _ : state) {
    while (!RunMultiTxn(f, rng, c)) ++retries;
    ++committed;
  }
  state.counters["committed"] =
      benchmark::Counter(static_cast<double>(committed),
                         benchmark::Counter::kIsRate);
  state.counters["retries"] = static_cast<double>(retries);
  state.counters["class_write_waits"] = benchmark::Counter(
      static_cast<double>(f.env->store->class_write_waits() - waits_before),
      benchmark::Counter::kAvgThreads);
  state.SetLabel(distinct ? "distinct-classes" : "same-class");
}

void BM_MultiClassWriters_DistinctClasses(benchmark::State& state) {
  MultiClassBench(state, /*distinct=*/true);
}

void BM_MultiClassWriters_SameClass(benchmark::State& state) {
  MultiClassBench(state, /*distinct=*/false);
}

BENCHMARK(BM_MultiClassWriters_DistinctClasses)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Setup(SetupMulti)->Teardown(TeardownMulti)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MultiClassWriters_SameClass)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Setup(SetupMulti)->Teardown(TeardownMulti)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

// --- MVCC snapshot readers vs a full-speed writer ---------------------------
//
// The point of the snapshot read path: reader latency stays flat while a
// background writer commits updates as fast as it can, because readers
// resolve versions with zero lock-manager traffic. Both benchmarks report
// reader latency percentiles plus the lock.wait_ns percentiles of the
// whole run (all of which is writer-side waiting: the snapshot path never
// enters the lock manager).

struct WriterHarness {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::thread thread;
  obs::Histogram reader_ns;
  obs::Histogram lock_wait_ns;

  void Start() {
    g_fixture->locks.AttachMetrics(&lock_wait_ns);
    stop.store(false, std::memory_order_relaxed);
    thread = std::thread([this] {
      E7Fixture& f = *g_fixture;
      Random rng(99);
      while (!stop.load(std::memory_order_relaxed)) {
        Result<uint64_t> t = f.txns->Begin();
        if (!t.ok()) continue;
        Oid oid = f.oids[rng.Uniform(f.oids.size())];
        Result<Object> obj = f.txns->Get(*t, oid);
        Status st = obj.status();
        if (obj.ok()) {
          obj->Set(f.counter, Value::Int(obj->Get(f.counter).as_int() + 1));
          st = f.txns->Update(*t, *obj);
        }
        if (st.ok() && f.txns->Commit(*t).ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        } else if (!st.ok()) {
          (void)f.txns->Abort(*t);
        }
      }
    });
  }

  void Stop() {
    stop.store(true, std::memory_order_relaxed);
    if (thread.joinable()) thread.join();
    g_fixture->locks.AttachMetrics(nullptr);
  }
};

WriterHarness* g_writer = nullptr;

void SetupWriter(const benchmark::State& state) {
  SetupFixture(state);
  if (g_writer == nullptr) {
    g_writer = new WriterHarness();
    g_writer->Start();
  }
}

void TeardownWriter(const benchmark::State& state) {
  if (g_writer != nullptr) {
    g_writer->Stop();
    delete g_writer;
    g_writer = nullptr;
  }
  TeardownFixture(state);
}

void ReportReaderCounters(benchmark::State& state) {
  // Every thread reads the same shared histograms, so average across
  // threads reports the value itself.
  constexpr auto kAvg = benchmark::Counter::kAvgThreads;
  obs::HistogramData r = g_writer->reader_ns.data();
  state.counters["reader_p50_ns"] =
      benchmark::Counter(static_cast<double>(r.Percentile(0.50)), kAvg);
  state.counters["reader_p95_ns"] =
      benchmark::Counter(static_cast<double>(r.Percentile(0.95)), kAvg);
  state.counters["reader_p99_ns"] =
      benchmark::Counter(static_cast<double>(r.Percentile(0.99)), kAvg);
  obs::HistogramData w = g_writer->lock_wait_ns.data();
  state.counters["lock_wait_p99_ns"] =
      benchmark::Counter(static_cast<double>(w.Percentile(0.99)), kAvg);
  state.counters["writer_commits"] = benchmark::Counter(
      static_cast<double>(
          g_writer->commits.load(std::memory_order_relaxed)),
      kAvg);
}

// Snapshot point reads racing the writer. Latency should match the
// writer-less BM_ConcurrentGet_Cached class of results: no IS/S locks, no
// class latch on the version-resolution path.
void BM_ConcurrentGet_WithWriter(benchmark::State& state) {
  E7Fixture& f = *g_fixture;
  MvccTable* mvcc = f.txns->mvcc();
  Random rng(500 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    Snapshot snap = mvcc->AcquireSnapshot();
    Oid oid = f.oids[rng.Uniform(f.oids.size())];
    obs::Timer tm(&g_writer->reader_ns);
    Result<std::shared_ptr<const Object>> obj =
        f.env->store->GetShared(oid, snap.read_ts());
    tm.Stop();
    if (!obj.ok()) {
      state.SkipWithError(obj.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*obj);
  }
  ReportReaderCounters(state);
}

// A full snapshot extent scan racing the writer. The repeatable result
// cardinality doubles as a correctness check: the writer only updates, so
// every snapshot must see exactly kObjects objects.
void BM_ScanUnderUpdate(benchmark::State& state) {
  E7Fixture& f = *g_fixture;
  QueryEngine qe(f.env->store.get(), /*indexes=*/nullptr);
  Query q;
  q.target = f.cls;
  q.hierarchy_scope = false;
  for (auto _ : state) {
    obs::Timer tm(&g_writer->reader_ns);
    Result<std::vector<Oid>> hits = qe.Execute(q);
    tm.Stop();
    if (!hits.ok()) {
      state.SkipWithError(hits.status().ToString().c_str());
      return;
    }
    if (hits->size() != kObjects) {
      state.SkipWithError("snapshot scan saw a torn extent");
      return;
    }
  }
  state.counters["objects"] = static_cast<double>(kObjects);
  ReportReaderCounters(state);
}

BENCHMARK(BM_ConcurrentGet_WithWriter)
    ->Threads(1)->Threads(4)->Threads(8)
    ->Setup(SetupWriter)->Teardown(TeardownWriter)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ScanUnderUpdate)
    ->Setup(SetupWriter)->Teardown(TeardownWriter)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace kimdb

BENCHMARK_MAIN();
