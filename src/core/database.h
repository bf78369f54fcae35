#ifndef KIMDB_CORE_DATABASE_H_
#define KIMDB_CORE_DATABASE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "authz/authorization.h"
#include "catalog/catalog.h"
#include "catalog/method_registry.h"
#include "catalog/stats.h"
#include "index/index_manager.h"
#include "lang/parser.h"
#include "object/composite.h"
#include "object/notification.h"
#include "object/object_store.h"
#include "object/recovery.h"
#include "object/versions.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/trace.h"
#include "query/query_engine.h"
#include "query/views.h"
#include "rules/datalog.h"
#include "txn/checkout.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"

namespace kimdb {

struct DatabaseOptions {
  /// Base path: the store lives at `<path>.db`, the log at `<path>.wal`.
  /// Ignored when `in_memory` is true.
  std::string path;
  bool in_memory = false;
  size_t buffer_pool_pages = 1024;
  /// Byte budget of the deserialized-object cache (DESIGN.md §12);
  /// 0 disables it (every Get decodes from the heap).
  size_t object_cache_bytes = ObjectStore::kDefaultCacheBytes;

  // --- observability (DESIGN.md §15) ----------------------------------------

  /// Per-thread capacity of the flight-recorder ring, in events (rounded
  /// up to a power of two). The recorder is always constructed -- tests
  /// and the shell can arm it at runtime -- but only records while
  /// enabled.
  size_t trace_ring_events = 4096;
  /// Arms the flight recorder at Open (otherwise `db.trace().set_enabled`
  /// or the shell's `.trace on` arm it later).
  bool trace_enabled = false;
  /// When non-empty, a MetricsReporter thread appends one JSON line of
  /// registry state (plus the freshly closed histogram windows) to this
  /// file every `metrics_report_interval_ms`.
  std::string metrics_report_path;
  uint32_t metrics_report_interval_ms = 1000;
  /// Commits/queries slower than this log their per-stage breakdown into
  /// the slow-operation log; 0 disables it.
  uint64_t slow_op_threshold_ns = 0;
};

/// The KIMDB public facade: one object binds the whole system the paper
/// describes --
///
///   core object model + class hierarchy + schema evolution   (catalog)
///   extents, object directory, clustering, long data         (storage)
///   WAL + recovery, transactions, hierarchical locking       (txn/wal)
///   single-class / class-hierarchy / nested indexes          (index)
///   declarative queries over nested definitions + OQL-lite   (query/lang)
///   views, authorization (implicit + content-based)          (query/authz)
///   versions, composites, change notification, swizzling     (object)
///   checkout/checkin private databases                       (txn)
///   deductive rules                                          (rules)
///
/// Mutating entry points enforce the cross-cutting guards (released
/// versions are immutable; checked-out objects are not writable in place).
///
/// Derives from MethodEnv so registered method bodies receive a typed
/// pointer back to the facade (MethodContext::env).
class Database : public MethodEnv {
 public:
  static Result<std::unique_ptr<Database>> Open(const DatabaseOptions& opts);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Checkpoints and flushes; further use is invalid.
  Status Close();

  // --- schema (DDL persists the catalog immediately) ------------------------

  Result<ClassId> CreateClass(
      std::string_view name, const std::vector<std::string>& superclasses,
      const std::vector<AttributeSpec>& attrs,
      const std::vector<MethodSpec>& methods = {});
  Status AddAttribute(std::string_view cls, const AttributeSpec& spec);
  Status DropAttribute(std::string_view cls, std::string_view attr);
  Status RenameAttribute(std::string_view cls, std::string_view from,
                         std::string_view to);
  Status AddSuperclass(std::string_view cls, std::string_view super);
  Status RemoveSuperclass(std::string_view cls, std::string_view super);
  Status DropClass(std::string_view cls);
  Result<ClassId> FindClass(std::string_view name) const {
    return catalog_->FindClass(name);
  }

  // --- transactions -----------------------------------------------------------

  Result<uint64_t> Begin() { return txns_->Begin(); }
  Status Commit(uint64_t txn) { return txns_->Commit(txn); }
  Status Abort(uint64_t txn) { return txns_->Abort(txn); }

  // --- objects -----------------------------------------------------------------

  Result<Oid> Insert(uint64_t txn, std::string_view class_name,
                     const std::vector<std::pair<std::string, Value>>& attrs,
                     Oid cluster_hint = kNilOid);
  Result<Object> Get(uint64_t txn, Oid oid) { return txns_->Get(txn, oid); }
  Status Set(uint64_t txn, Oid oid, std::string_view attr, Value value);
  Status Update(uint64_t txn, const Object& obj);
  Status Delete(uint64_t txn, Oid oid);

  /// Message passing: sends `method` to the object (late binding).
  Result<Value> Send(uint64_t txn, Oid oid, std::string_view method,
                     const std::vector<Value>& args = {});

  // --- queries ------------------------------------------------------------------

  Result<std::vector<Oid>> ExecuteQuery(const Query& q,
                                        QueryStats* stats = nullptr);
  Result<std::vector<Oid>> ExecuteOql(std::string_view oql,
                                      QueryStats* stats = nullptr);
  Result<QueryPlan> ExplainOql(std::string_view oql);

  /// Runs `explain analyze select ...` (the bare `select ...` is accepted
  /// too) and returns the executed operator tree annotated with
  /// per-operator rows / loops / time / buffer-pool pages.
  Result<std::string> ExplainAnalyzeOql(std::string_view oql);

  /// The `analyze <Class>` verb: rebuilds the cardinality statistics of
  /// the class and every subclass (live counts, extent pages, one
  /// equi-depth histogram per index targeting the class) and persists them
  /// with the catalog. The cost-based planner prices plans from these
  /// until mutation drift retires them (ClassStats::Fresh).
  Status AnalyzeClass(std::string_view class_name);

  /// Cardinality statistics the planner reads (exposed for tests/tools).
  const StatsRegistry& stats() const { return stats_; }

  /// Automatic re-analyze: the planner fires this whenever it meets a class
  /// whose statistics drifted stale (ClassStats::Fresh() false); a
  /// background thread re-runs AnalyzeClass so the next plans price
  /// cost-based again instead of waiting for a manual `analyze` verb.
  /// Deduplicated per class; runs are counted as
  /// `optimizer.auto_analyze_runs`. Exposed so tests can enqueue directly.
  void ScheduleAutoAnalyze(ClassId root);
  /// Blocks until the auto-analyze queue is empty and idle (tests).
  void DrainAutoAnalyze();

  /// Registers a hook Close() invokes before engine teardown begins. The
  /// wire-protocol server installs its Stop() here so closing the database
  /// first drains in-flight network requests; pass nullptr to clear.
  void SetFrontendStopHook(std::function<void()> hook);

  // --- observability --------------------------------------------------------

  /// The process-wide registry every subsystem is wired into at Open():
  /// counters (bufferpool.*, wal.*, lock.*, txn.*, index.*, query.*),
  /// latency histograms (wal.append_ns, wal.fsync_ns, lock.wait_ns,
  /// txn.commit_ns, txn.abort_ns, query.exec_ns) and recovery phase
  /// gauges. See DESIGN.md §10 for the naming scheme.
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// Snapshot of every registered metric as a flat JSON object.
  std::string MetricsJson() const { return metrics_.TakeSnapshot().ToJson(); }

  /// The flight recorder wired through the commit pipeline, class latches,
  /// WAL and exec operators (DESIGN.md §15). Always present; records only
  /// while enabled.
  obs::FlightRecorder& trace() { return *trace_; }
  /// Trace dump as JSON (newest `max_events` events; 0 = whole rings).
  std::string TraceJson(size_t max_events = 0) const {
    return trace_->DumpJson(max_events);
  }
  /// Slow operations (commits/queries over the configured threshold) with
  /// their per-stage breakdowns.
  obs::SlowOpLog& slow_ops() { return *slow_ops_; }
  /// The background JSONL metrics reporter, or nullptr when no
  /// metrics_report_path was configured.
  obs::MetricsReporter* reporter() { return reporter_.get(); }

  // --- subsystem access -----------------------------------------------------------

  Catalog& catalog() { return *catalog_; }
  const Catalog& catalog() const { return *catalog_; }
  ObjectStore& store() { return *store_; }
  IndexManager& indexes() { return *indexes_; }
  QueryEngine& query_engine() { return *query_; }
  ViewManager& views() { return *views_; }
  MethodRegistry& methods() { return methods_; }
  VersionManager& versions() { return *versions_; }
  CompositeManager& composites() { return *composites_; }
  ChangeNotifier& notifier() { return *notifier_; }
  TxnManager& txns() { return *txns_; }
  LockManager& locks() { return locks_; }
  CheckoutManager& checkout() { return *checkout_; }
  AuthorizationManager& authz() { return *authz_; }
  RuleEngine& rules() { return *rules_; }
  lang::Parser& parser() { return *parser_; }
  BufferPool& buffer_pool() { return *bp_; }
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Flushes dirty pages, persists the catalog/metadata and truncates the
  /// WAL. Refuses while transactions are active.
  Status Checkpoint();

 private:
  Database() = default;

  /// Forwards every store mutation to the stats registry as drift, so the
  /// planner demotes to rule-based choice once statistics go stale.
  class StatsListener : public ObjectStoreListener {
   public:
    explicit StatsListener(StatsRegistry* stats) : stats_(stats) {}
    void OnInsert(const Object& obj) override {
      stats_->RecordMutation(obj.class_id());
    }
    void OnUpdate(const Object&, const Object& after) override {
      stats_->RecordMutation(after.class_id());
    }
    void OnDelete(const Object& before) override {
      stats_->RecordMutation(before.class_id());
    }

   private:
    StatsRegistry* stats_;
  };

  /// Registers every subsystem's collectors/histograms on metrics_ (end of
  /// Open, once all subsystems exist).
  void WireMetrics();
  /// Folds one finished query's ExecContext counters into the registry.
  void FlushQueryMetrics(const exec::ExecContext& ctx);
  /// Files the query into the slow-op log when its wall time crosses the
  /// configured threshold (detail carries the ExecContext counters).
  void MaybeLogSlowQuery(std::chrono::steady_clock::time_point t0,
                         const exec::ExecContext& ctx);

  Status PersistMeta();
  Result<std::string> EncodeMeta() const;
  Status DecodeMeta(std::string_view bytes);

  /// The body of the `analyze` verb for one class subtree (thread-safe:
  /// called from AnalyzeClass and from the auto-analyze thread).
  Status AnalyzeClassTree(ClassId root);
  /// The auto-analyze worker: pops drifted classes and re-analyzes them.
  void AutoAnalyzeLoop();
  /// Stops and joins the auto-analyze thread (Close / destructor).
  void StopAutoAnalyze();

  DatabaseOptions opts_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> bp_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<IndexManager> indexes_;
  MethodRegistry methods_;
  std::unique_ptr<QueryEngine> query_;
  std::unique_ptr<ViewManager> views_;
  std::unique_ptr<VersionManager> versions_;
  std::unique_ptr<CompositeManager> composites_;
  std::unique_ptr<ChangeNotifier> notifier_;
  LockManager locks_;
  std::unique_ptr<TxnManager> txns_;
  std::unique_ptr<CheckoutManager> checkout_;
  std::unique_ptr<AuthorizationManager> authz_;
  std::unique_ptr<RuleEngine> rules_;
  std::unique_ptr<lang::Parser> parser_;
  StatsRegistry stats_;
  std::unique_ptr<StatsListener> stats_listener_;

  // Meta storage: page 0 holds [magic][meta heap head][meta rid]; the meta
  // heap's single record carries the encoded catalog + index + view defs.
  // meta_mu_ serializes PersistMeta: the auto-analyze thread persists stats
  // concurrently with foreground DDL / checkpoints.
  std::mutex meta_mu_;
  std::optional<HeapFile> meta_heap_;
  RecordId meta_rid_{};

  // Auto-analyze machinery (lazy-started on the first stale-stats signal).
  std::mutex analyzer_mu_;
  std::condition_variable analyzer_cv_;
  std::deque<ClassId> analyzer_queue_;       // under analyzer_mu_
  std::unordered_set<ClassId> analyzer_pending_;  // dedup, under analyzer_mu_
  bool analyzer_busy_ = false;               // under analyzer_mu_
  bool analyzer_stop_ = false;               // under analyzer_mu_
  std::thread analyzer_thread_;              // started/joined under no lock

  // Frontend (wire server) stop hook, invoked first by Close().
  std::mutex frontend_mu_;
  std::function<void()> frontend_stop_hook_;
  RecoveryStats recovery_stats_;
  obs::MetricsRegistry metrics_;
  obs::Histogram* query_exec_ns_ = nullptr;
  std::unique_ptr<obs::FlightRecorder> trace_;
  std::unique_ptr<obs::SlowOpLog> slow_ops_;
  std::unique_ptr<obs::MetricsReporter> reporter_;
  bool closed_ = false;
};

}  // namespace kimdb

#endif  // KIMDB_CORE_DATABASE_H_
