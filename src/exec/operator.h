#ifndef KIMDB_EXEC_OPERATOR_H_
#define KIMDB_EXEC_OPERATOR_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "model/object.h"
#include "model/value.h"
#include "util/result.h"
#include "util/status.h"

namespace kimdb {
namespace exec {

/// One row flowing through an operator tree. Object-model operators fill
/// `oid` (and `obj` when the producer already materialized the object, so
/// consumers never re-fetch what a scan just decoded); relational operators
/// fill `tuple`. A Row is cheap to move, never to copy implicitly.
///
/// Object-model execution late-materializes, always: a Filter over index
/// candidates evaluates its predicate against the shared resident image
/// and emits the row with `obj` still empty, and a Filter fused into a
/// scan emits bare OIDs too. Consumers read OIDs; `obj` is a by-product
/// of an unfiltered scan, never a promise.
struct Row {
  Oid oid = kNilOid;
  std::optional<Object> obj;        // set by extent scans, not index scans
  std::vector<Value> tuple;         // set by relational operators
};

/// Predicate hook the query layer injects into Filter / scans.
/// Implemented by QueryEngine::Matches (path semantics, late-bound method
/// calls); kept as a std::function so the exec layer does not depend on
/// the query layer. It accounts its work on the ExecContext it is handed.
using MatchFn = std::function<Result<bool>(const Object&, ExecContext*)>;

/// Per-operator EXPLAIN ANALYZE span, filled only while the context's
/// analyze flag is armed. Time and pages are *inclusive* of children (a
/// parent's Next drives its child's Next inside the measured window), like
/// the "actual time" column of the classical EXPLAIN ANALYZE renderers.
/// Plain fields: the whole tree runs on its consumer's thread.
struct OpStats {
  uint64_t rows = 0;         // rows this operator produced
  uint64_t loops = 0;        // Next calls, including the end-of-stream one
  uint64_t time_ns = 0;      // wall time inside Open+Next+Close
  uint64_t pages_hit = 0;    // buffer-pool hits during those calls
  uint64_t pages_missed = 0; // buffer-pool misses during those calls
  uint64_t pages_readahead = 0;  // hits served from a prefetched frame
  uint64_t obj_cache_hits = 0;   // Gets served by the object cache
  uint64_t obj_cache_misses = 0; // Gets that decoded from the heap
};

/// Pull-based (Volcano) operator: Open prepares state, NextBatch produces
/// slabs of rows until it returns 0, Close releases resources. The same
/// ExecContext is threaded through all three calls and shared by the whole
/// tree; operators account their work on its counters.
///
/// Lifecycle contract: Open exactly once, NextBatch (or Next) until
/// end of stream or error, Close exactly once (also after an error).
///
/// Each operator implements exactly one pull hook. The object-model
/// operators (src/exec) implement NextBatchImpl only; the relational
/// baseline operators (src/rel) stay row-at-a-time and implement NextImpl
/// only, which the default NextBatchImpl drains. The default NextImpl
/// fails instead of calling NextBatchImpl, so the two defaults can never
/// recurse into each other: drive an object-model tree with NextBatch.
///
/// The public lifecycle methods are non-virtual instrumentation shells
/// around the virtual *Impl hooks subclasses provide: when the context has
/// EXPLAIN ANALYZE armed they account rows/loops/time/pages into stats(),
/// and when it does not they cost one relaxed atomic load.
class Operator {
 public:
  virtual ~Operator() = default;

  Status Open(ExecContext* ctx) {
    RecordLifecycle(ctx, obs::TraceEventKind::kBegin);
    if (!ctx->analyze_enabled()) return OpenImpl(ctx);
    Span span(this, ctx);
    return OpenImpl(ctx);
  }

  /// Fills *row and returns true, or returns false at end of stream.
  /// Row-at-a-time operators only (see the class comment).
  Result<bool> Next(ExecContext* ctx, Row* row) {
    if (!ctx->analyze_enabled()) return NextImpl(ctx, row);
    Span span(this, ctx);
    Result<bool> more = NextImpl(ctx, row);
    ++stats_.loops;
    if (more.ok() && *more) ++stats_.rows;
    return more;
  }

  /// Batch-at-a-time pull: clears `*out`, fills it with up to
  /// ctx->batch_size() rows, and returns the count -- 0 means end of
  /// stream (a non-empty batch may be short of the target; only 0 ends
  /// the stream). One NextBatch call pays the virtual dispatch, span
  /// accounting and budget poll once per slab instead of once per row.
  Result<size_t> NextBatch(ExecContext* ctx, std::vector<Row>* out) {
    out->clear();
    const size_t max = ctx->batch_size();
    if (!ctx->analyze_enabled()) return NextBatchImpl(ctx, out, max);
    Span span(this, ctx);
    Result<size_t> n = NextBatchImpl(ctx, out, max);
    ++stats_.loops;  // loops counts NextBatch calls in batch mode
    if (n.ok()) stats_.rows += *n;
    return n;
  }

  void Close(ExecContext* ctx) {
    if (!ctx->analyze_enabled()) {
      CloseImpl(ctx);
    } else {
      Span span(this, ctx);
      CloseImpl(ctx);
    }
    RecordLifecycle(ctx, obs::TraceEventKind::kEnd);
  }

  /// Batched scan+filter fusion: a parent Filter offers its predicate so
  /// the scan can apply it inside NextBatchImpl, before a non-matching
  /// object is ever moved out of the decoded page buffer. Returns true iff
  /// this operator -- and, for composites, every child -- will filter the
  /// rows it emits from NextBatchImpl; `pred` must outlive the operator's
  /// open lifecycle.
  virtual bool AcceptBatchResidual(const MatchFn* pred) {
    (void)pred;
    return false;
  }

  /// One-line self-description for EXPLAIN ("ExtentScan(Vehicle)").
  virtual std::string Describe() const = 0;
  /// Child operators, for EXPLAIN tree rendering.
  virtual std::vector<const Operator*> children() const { return {}; }

  /// Span accounted so far; all zeros unless the tree ran with
  /// ExecContext::EnableAnalyze().
  const OpStats& stats() const { return stats_; }

  /// Planner estimates for EXPLAIN (est_rows next to actual rows). Set by
  /// QueryEngine::Lower only when the plan was cost-based; `est_cost` < 0
  /// means "rows only" (non-root operators).
  void SetEstimates(uint64_t est_rows, double est_cost = -1.0) {
    has_estimates_ = true;
    est_rows_ = est_rows;
    est_cost_ = est_cost;
  }
  bool has_estimates() const { return has_estimates_; }
  uint64_t est_rows() const { return est_rows_; }
  double est_cost() const { return est_cost_; }

 protected:
  virtual Status OpenImpl(ExecContext* ctx) = 0;
  virtual void CloseImpl(ExecContext* ctx) = 0;

  /// Row-at-a-time hook, overridden by the relational operators only. The
  /// default refuses: a batch-only operator has no row path.
  virtual Result<bool> NextImpl(ExecContext* ctx, Row* row) {
    (void)ctx;
    (void)row;
    return Status::Internal(Describe() + " is batch-only; pull it with "
                                         "NextBatch");
  }

  /// Batch hook. `out` arrives empty; implementations append at most `max`
  /// rows. The default drains NextImpl row by row (the relational
  /// operators); every object-model operator overrides it.
  virtual Result<size_t> NextBatchImpl(ExecContext* ctx, std::vector<Row>* out,
                                       size_t max) {
    Row row;
    while (out->size() < max) {
      KIMDB_ASSIGN_OR_RETURN(bool more, NextImpl(ctx, &row));
      if (!more) break;
      out->push_back(std::move(row));
      row = Row{};
    }
    return out->size();
  }

 private:
  /// Emits the operator's open/close boundary into the flight recorder
  /// (kExecOp; arg tags the operator so a dump can pair B/E events). Next
  /// and NextBatch are deliberately not traced -- they would flood the
  /// ring.
  void RecordLifecycle(ExecContext* ctx, obs::TraceEventKind kind) {
    obs::FlightRecorder* r = ctx->recorder();
    if (r == nullptr) return;
    r->Record(obs::TraceStage::kExecOp, kind, 0,
              static_cast<uint64_t>(reinterpret_cast<uintptr_t>(this)));
  }

  /// Accumulates wall time and the buffer-pool delta of one lifecycle call.
  class Span {
   public:
    Span(Operator* op, ExecContext* ctx)
        : op_(op),
          ctx_(ctx),
          pages_(ctx->PageCountsNow()),
          oc_hits_(ctx->obj_cache_hits.load(std::memory_order_relaxed)),
          oc_misses_(ctx->obj_cache_misses.load(std::memory_order_relaxed)),
          start_(std::chrono::steady_clock::now()) {}
    ~Span() {
      auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
      if (ns > 0) op_->stats_.time_ns += static_cast<uint64_t>(ns);
      ExecContext::PageCounts now = ctx_->PageCountsNow();
      op_->stats_.pages_hit += now.hits - pages_.hits;
      op_->stats_.pages_missed += now.misses - pages_.misses;
      op_->stats_.pages_readahead += now.readahead_hits - pages_.readahead_hits;
      op_->stats_.obj_cache_hits +=
          ctx_->obj_cache_hits.load(std::memory_order_relaxed) - oc_hits_;
      op_->stats_.obj_cache_misses +=
          ctx_->obj_cache_misses.load(std::memory_order_relaxed) - oc_misses_;
    }

   private:
    Operator* op_;
    ExecContext* ctx_;
    ExecContext::PageCounts pages_;
    uint64_t oc_hits_;
    uint64_t oc_misses_;
    std::chrono::steady_clock::time_point start_;
  };

  OpStats stats_;
  bool has_estimates_ = false;
  uint64_t est_rows_ = 0;
  double est_cost_ = -1.0;
};

/// Renders the operator tree rooted at `root` with two-space indentation:
///
///   Filter(Weight > 7500)
///     HierarchyScan(Vehicle)
///       ExtentScan(Vehicle)
///       ExtentScan(Truck)
std::string ExplainTree(const Operator& root);

/// Renders the tree with each operator's ANALYZE span appended:
///
///   Filter(Weight > 7500) (rows=2 loops=3 time=0.41ms pages=12+0)
///     ...
///
/// `pages=H+M` is hits+misses. Meaningful only after the tree executed
/// under a context with EnableAnalyze().
std::string ExplainAnalyzeTree(const Operator& root);

/// Drives a row-at-a-time (relational) tree to completion through Next,
/// handing every row to `fn`. Always Closes, including on error paths.
Status ForEachRow(Operator& root, ExecContext* ctx,
                  const std::function<Status(Row&)>& fn);

/// Batch-at-a-time driver: pulls ctx->batch_size() rows per NextBatch and
/// hands them to `fn` one by one. Always Closes, including on error paths.
Status ForEachRowBatched(Operator& root, ExecContext* ctx,
                         const std::function<Status(Row&)>& fn);

/// Drives a tree to completion collecting the OIDs it produces (the
/// object-model result shape).
Result<std::vector<Oid>> CollectOids(Operator& root, ExecContext* ctx);

}  // namespace exec
}  // namespace kimdb

#endif  // KIMDB_EXEC_OPERATOR_H_
