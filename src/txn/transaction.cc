#include "txn/transaction.h"

#include <chrono>

namespace kimdb {

namespace {

/// Per-stage accounting for one commit/abort: emits begin/end events
/// through the flight recorder and accumulates each stage's duration so an
/// operation that crosses the slow-op threshold can log its complete
/// breakdown -- even when the recorder itself is disabled. When neither
/// sink is armed every method is a couple of null checks.
class CommitTracer {
 public:
  CommitTracer(obs::FlightRecorder* trace, obs::SlowOpLog* slow,
               uint64_t txn, obs::TraceStage top)
      : txn_(txn), top_(top) {
    if (trace != nullptr && trace->enabled()) trace_ = trace;
    if (slow != nullptr && slow->threshold_ns() > 0) slow_ = slow;
    if (!active()) return;
    t0_ = Now();
    if (trace_ != nullptr) {
      trace_->Record(top_, obs::TraceEventKind::kBegin, txn_, 0);
    }
  }

  bool active() const { return trace_ != nullptr || slow_ != nullptr; }

  void BeginStage(obs::TraceStage s, uint64_t arg = 0) {
    if (!active()) return;
    cur_ = s;
    cur_t0_ = Now();
    if (trace_ != nullptr) {
      trace_->Record(s, obs::TraceEventKind::kBegin, txn_, arg);
    }
  }

  void EndStage() {
    if (!active() || cur_ == obs::TraceStage::kNone) return;
    uint64_t dur = Now() - cur_t0_;
    stages_.emplace_back(cur_, dur);
    if (trace_ != nullptr) {
      trace_->Record(cur_, obs::TraceEventKind::kEnd, txn_, dur);
    }
    cur_ = obs::TraceStage::kNone;
  }

  void Instant(obs::TraceStage s, uint64_t arg) {
    if (trace_ != nullptr) {
      trace_->Record(s, obs::TraceEventKind::kInstant, txn_, arg);
    }
  }

  /// Closes the top-level span; a total at or above the slow-op threshold
  /// files the stage breakdown into the log (and drops a kSlowOp marker
  /// into the trace so dumps flag it). Idempotent.
  void Finish(const char* kind) {
    if (!active()) return;
    uint64_t total = Now() - t0_;
    if (trace_ != nullptr) {
      trace_->Record(top_, obs::TraceEventKind::kEnd, txn_, total);
    }
    if (slow_ != nullptr && total >= slow_->threshold_ns()) {
      Instant(obs::TraceStage::kSlowOp, total);
      obs::SlowOp op;
      op.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
      op.txn = txn_;
      op.total_ns = total;
      op.kind = kind;
      op.stages = std::move(stages_);
      slow_->Add(std::move(op));
    }
    trace_ = nullptr;
    slow_ = nullptr;
  }

 private:
  static uint64_t Now() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  obs::FlightRecorder* trace_ = nullptr;
  obs::SlowOpLog* slow_ = nullptr;
  uint64_t txn_;
  obs::TraceStage top_;
  uint64_t t0_ = 0;
  obs::TraceStage cur_ = obs::TraceStage::kNone;
  uint64_t cur_t0_ = 0;
  std::vector<std::pair<obs::TraceStage, uint64_t>> stages_;
};

}  // namespace

Result<uint64_t> TxnManager::Begin() {
  uint64_t txn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    txn = next_txn_++;
    active_[txn] = TxnState{};
    ++stats_.begun;
  }
  Status st = LogControl(txn, WalRecordType::kBegin);
  if (!st.ok()) {
    // A failed begin record (e.g. a wedged WAL) must not leak a phantom
    // entry that no Commit/Abort will ever erase.
    std::lock_guard<std::mutex> lock(mu_);
    active_.erase(txn);
    --stats_.begun;
    return st;
  }
  return txn;
}

Status TxnManager::CheckActive(uint64_t txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_.count(txn)) {
    return Status::FailedPrecondition("transaction " + std::to_string(txn) +
                                      " is not active");
  }
  return Status::OK();
}

Status TxnManager::LogControl(uint64_t txn, WalRecordType type,
                              uint64_t key) {
  if (store_->wal() == nullptr) return Status::OK();
  WalRecord rec;
  rec.txn_id = txn;
  rec.type = type;
  rec.key = key;  // commit records carry the commit timestamp
  KIMDB_RETURN_IF_ERROR(store_->wal()->Append(std::move(rec)).status());
  return Status::OK();
}

Result<uint64_t> TxnManager::SnapshotTs(uint64_t txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(txn);
  if (it == active_.end()) {
    return Status::FailedPrecondition("transaction " + std::to_string(txn) +
                                      " is not active");
  }
  // Lazy pin: the snapshot is taken at the first read, not at Begin, so a
  // transaction that writes before reading observes its 2PL lock waits the
  // classic way and then reads the freshest possible state.
  if (!it->second.snapshot.active()) {
    it->second.snapshot = mvcc_->AcquireSnapshot();
  }
  return it->second.snapshot.read_ts();
}

Status TxnManager::CheckWriteConflict(uint64_t txn, Oid oid) {
  uint64_t read_ts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(txn);
    if (it == active_.end()) {
      return Status::FailedPrecondition("transaction is not active");
    }
    // A transaction that never read has no snapshot to defend: it is a
    // pure 2PL writer and the X lock alone serializes it correctly.
    if (!it->second.snapshot.active()) return Status::OK();
    read_ts = it->second.snapshot.read_ts();
  }
  // First-committer-wins: the X lock is already held, so the chain head is
  // stable -- if someone committed this object after our snapshot, our
  // write would silently overwrite state we never saw (lost update).
  if (mvcc_->NewestCommittedTs(oid) > read_ts) {
    mvcc_->CountConflict();
    return Status::Aborted(
        "write-write conflict: object " + oid.ToString() +
        " was committed after this transaction's snapshot");
  }
  return Status::OK();
}

Status TxnManager::Commit(uint64_t txn) {
  obs::Timer timer(commit_ns_);
  CommitTracer tr(trace_, slow_ops_, txn, obs::TraceStage::kCommit);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(txn);
    if (it == active_.end()) {
      return Status::FailedPrecondition("transaction " + std::to_string(txn) +
                                        " is not active");
    }
    if (it->second.poisoned) {
      return Status::FailedPrecondition(
          "transaction " + std::to_string(txn) +
          " failed a commit attempt and is abort-only");
    }
  }
  if (mvcc_->HasWrites(txn)) {
    Wal* wal = store_->wal();
    uint64_t ts;
    Wal::Reservation resv;
    {
      // commit_mu covers ONLY timestamp allocation plus WAL log-slot
      // reservation (no I/O): reservation order == LSN order == byte
      // order == timestamp order, so any sync that makes ts's slot
      // durable has made every smaller timestamp's slot durable too --
      // the log-order == ts-order invariant recovery's commit-clock
      // restore depends on. The append and group-commit fdatasync run
      // below, off the mutex, so one slow commit no longer stalls every
      // other committer's clock access (DESIGN.md §14).
      tr.BeginStage(obs::TraceStage::kCommitClock);
      std::lock_guard<std::mutex> clk(mvcc_->commit_mu());
      ts = mvcc_->AllocateCommitTs();
      if (wal != nullptr) {
        WalRecord rec;
        rec.txn_id = txn;
        rec.type = WalRecordType::kCommit;
        rec.key = ts;  // the commit timestamp rides in the key field
        resv = wal->Reserve(std::move(rec));
      }
    }
    tr.EndStage();
    tr.Instant(obs::TraceStage::kCommitTs, ts);
    // Promote before the append: by the time FinishCommit can make ts
    // visible, every version tagged <= ts is in its chain (promotion of
    // smaller timestamps happens-before their FinishCommit, and the
    // dense frontier never passes an unfinished timestamp).
    tr.BeginStage(obs::TraceStage::kMvccPromote);
    std::vector<Oid> promoted = mvcc_->Promote(txn, ts);
    tr.EndStage();
    Status io;
    if (wal != nullptr) {
      tr.BeginStage(obs::TraceStage::kWalAppend);
      io = wal->AppendReserved(&resv);
      tr.EndStage();
      if (io.ok()) {
        tr.BeginStage(obs::TraceStage::kWalSyncWait);
        io = wal->SyncTo(resv.end());  // force the log
        tr.EndStage();
      }
    }
    if (!io.ok()) {
      tr.Instant(obs::TraceStage::kCommitFail, ts);
      // The commit record is not durable (recovery truncates at the hole),
      // so the promoted versions must not outlive this failure: demote
      // them back to pending images before FinishCommit can let the dense
      // frontier pass ts. The chains stay alive and the cache-fill gate
      // stays closed over the heap, which still carries the failed
      // transaction's writes until its Abort rolls them back.
      mvcc_->Demote(txn, ts, promoted);
      // The timestamp is still consumed: an unreported allocation would
      // wedge the frontier (and with it every future snapshot) forever.
      // By the time the frontier passes ts, no version carries it.
      mvcc_->FinishCommit(ts);
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = active_.find(txn);
        if (it != active_.end()) it->second.poisoned = true;
      }
      tr.Finish("commit");
      return io;
    }
    tr.BeginStage(obs::TraceStage::kMvccPublish);
    mvcc_->FinishCommit(ts);
    tr.EndStage();
    tr.BeginStage(obs::TraceStage::kMvccPrune);
    mvcc_->Prune();
    tr.EndStage();
  } else {
    // Read-only commit: no timestamp, no version traffic.
    tr.BeginStage(obs::TraceStage::kWalAppend);
    Status st = LogControl(txn, WalRecordType::kCommit);
    tr.EndStage();
    if (st.ok() && store_->wal() != nullptr) {
      tr.BeginStage(obs::TraceStage::kWalSyncWait);
      st = store_->wal()->Sync();
      tr.EndStage();
    }
    if (!st.ok()) {
      tr.Finish("commit");
      return st;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.erase(txn);  // releases the snapshot pin
    ++stats_.committed;
  }
  locks_->ReleaseAll(txn);
  tr.Finish("commit");
  return Status::OK();
}

Status TxnManager::Abort(uint64_t txn) {
  obs::Timer timer(abort_ns_);
  obs::StageScope abort_span(trace_, obs::TraceStage::kTxnAbort, txn);
  std::vector<UndoRecord> undo;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(txn);
    if (it == active_.end()) {
      return Status::FailedPrecondition("transaction is not active");
    }
    undo = std::move(it->second.undo);
    active_.erase(it);  // releases the snapshot pin
    ++stats_.aborted;
  }
  // Roll back in reverse order through the unlogged apply path (recovery
  // would redo the same inverses from the WAL if we crash mid-abort).
  Status first_error;
  for (auto rit = undo.rbegin(); rit != undo.rend(); ++rit) {
    Status st;
    switch (rit->kind) {
      case UndoKind::kInsert:
        st = store_->ApplyDelete(rit->oid);
        break;
      case UndoKind::kUpdate:
      case UndoKind::kDelete:
        st = store_->ApplyUpdate(rit->before);
        break;
    }
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  // Drop the staged versions only after the heap rollback: while the
  // pending tags exist, snapshot readers keep resolving through the chain
  // and never observe the half-rolled-back heap.
  mvcc_->Discard(txn);
  // Release the locks even when the abort record cannot be appended (a
  // wedged WAL fails every append): the rollback already happened, and a
  // leaked X lock would block every later writer of these objects forever.
  Status log_st = LogControl(txn, WalRecordType::kAbort);
  locks_->ReleaseAll(txn);
  if (!first_error.ok()) return first_error;
  return log_st;
}

bool TxnManager::IsActive(uint64_t txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.count(txn) > 0;
}

size_t TxnManager::active_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

Status TxnManager::PushUndo(uint64_t txn, UndoRecord rec) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(txn);
    if (it != active_.end()) {
      it->second.undo.push_back(std::move(rec));
      return Status::OK();
    }
  }
  // The transaction committed or aborted between CheckActive and here
  // (concurrent misuse of the handle). operator[] would silently re-create
  // an entry that no Commit/Abort will ever erase -- a phantom "active"
  // transaction leaked forever. Instead, roll the orphaned store effect
  // back through the unlogged apply path, drop any locks taken under the
  // dead id (ReleaseAll already ran at commit/abort), and fail the call.
  switch (rec.kind) {
    case UndoKind::kInsert:
      (void)store_->ApplyDelete(rec.oid);
      break;
    case UndoKind::kUpdate:
    case UndoKind::kDelete:
      (void)store_->ApplyUpdate(rec.before);
      break;
  }
  mvcc_->Discard(txn);
  locks_->ReleaseAll(txn);
  return Status::FailedPrecondition(
      "transaction " + std::to_string(txn) +
      " completed concurrently; operation rolled back");
}

Result<Oid> TxnManager::Insert(uint64_t txn, ClassId cls, Object contents,
                               Oid cluster_hint) {
  KIMDB_RETURN_IF_ERROR(CheckActive(txn));
  KIMDB_RETURN_IF_ERROR(
      locks_->Lock(txn, LockResource::Class(cls), LockMode::kIX));
  KIMDB_ASSIGN_OR_RETURN(Oid oid,
                         store_->Insert(txn, cls, std::move(contents),
                                        cluster_hint));
  // The fresh object is implicitly X-locked (no one else can see it before
  // commit under 2PL, but taking the lock keeps the protocol uniform).
  KIMDB_RETURN_IF_ERROR(
      locks_->Lock(txn, LockResource::Object(oid), LockMode::kX));
  KIMDB_RETURN_IF_ERROR(
      PushUndo(txn, UndoRecord{UndoKind::kInsert, oid, Object{}}));
  return oid;
}

Result<std::shared_ptr<const Object>> TxnManager::GetShared(uint64_t txn,
                                                            Oid oid) {
  KIMDB_ASSIGN_OR_RETURN(uint64_t read_ts, SnapshotTs(txn));
  // Read-your-own-writes: the transaction's staged (uncommitted) image
  // wins over the snapshot.
  std::shared_ptr<const Object> pending;
  if (mvcc_->PendingByTxn(txn, oid, &pending)) {
    if (pending == nullptr) {
      return Status::NotFound("object " + oid.ToString() +
                              " deleted by this transaction");
    }
    return pending;
  }
  return store_->GetShared(oid, read_ts);
}

Result<Object> TxnManager::Get(uint64_t txn, Oid oid) {
  KIMDB_ASSIGN_OR_RETURN(std::shared_ptr<const Object> shared,
                         GetShared(txn, oid));
  return *shared;
}

Status TxnManager::Update(uint64_t txn, const Object& obj) {
  KIMDB_RETURN_IF_ERROR(CheckActive(txn));
  KIMDB_RETURN_IF_ERROR(locks_->Lock(
      txn, LockResource::Class(obj.class_id()), LockMode::kIX));
  KIMDB_RETURN_IF_ERROR(
      locks_->Lock(txn, LockResource::Object(obj.oid()), LockMode::kX));
  KIMDB_RETURN_IF_ERROR(CheckWriteConflict(txn, obj.oid()));
  KIMDB_ASSIGN_OR_RETURN(Object before, store_->GetRaw(obj.oid()));
  KIMDB_RETURN_IF_ERROR(store_->Update(txn, obj));
  return PushUndo(txn,
                  UndoRecord{UndoKind::kUpdate, obj.oid(), std::move(before)});
}

Status TxnManager::SetAttr(uint64_t txn, Oid oid, std::string_view attr,
                           Value value) {
  KIMDB_RETURN_IF_ERROR(CheckActive(txn));
  KIMDB_RETURN_IF_ERROR(locks_->Lock(
      txn, LockResource::Class(oid.class_id()), LockMode::kIX));
  KIMDB_RETURN_IF_ERROR(
      locks_->Lock(txn, LockResource::Object(oid), LockMode::kX));
  KIMDB_RETURN_IF_ERROR(CheckWriteConflict(txn, oid));
  KIMDB_ASSIGN_OR_RETURN(Object before, store_->GetRaw(oid));
  KIMDB_RETURN_IF_ERROR(store_->SetAttr(txn, oid, attr, std::move(value)));
  return PushUndo(txn, UndoRecord{UndoKind::kUpdate, oid, std::move(before)});
}

Status TxnManager::Delete(uint64_t txn, Oid oid) {
  KIMDB_RETURN_IF_ERROR(CheckActive(txn));
  KIMDB_RETURN_IF_ERROR(locks_->Lock(
      txn, LockResource::Class(oid.class_id()), LockMode::kIX));
  KIMDB_RETURN_IF_ERROR(
      locks_->Lock(txn, LockResource::Object(oid), LockMode::kX));
  KIMDB_RETURN_IF_ERROR(CheckWriteConflict(txn, oid));
  KIMDB_ASSIGN_OR_RETURN(Object before, store_->GetRaw(oid));
  KIMDB_RETURN_IF_ERROR(store_->Delete(txn, oid));
  return PushUndo(txn, UndoRecord{UndoKind::kDelete, oid, std::move(before)});
}

Status TxnManager::LockScan(uint64_t txn, ClassId cls, bool hierarchy) {
  KIMDB_RETURN_IF_ERROR(CheckActive(txn));
  if (!hierarchy) {
    return locks_->Lock(txn, LockResource::Class(cls), LockMode::kS);
  }
  // Class-hierarchy granule: the whole subtree is read-locked.
  for (ClassId c : store_->catalog()->Subtree(cls)) {
    KIMDB_RETURN_IF_ERROR(
        locks_->Lock(txn, LockResource::Class(c), LockMode::kS));
  }
  return Status::OK();
}

Status TxnManager::LockSchemaChange(uint64_t txn, ClassId cls) {
  KIMDB_RETURN_IF_ERROR(CheckActive(txn));
  // A schema change on a class affects its whole subtree (inherited
  // attributes): X-lock every class beneath it.
  for (ClassId c : store_->catalog()->Subtree(cls)) {
    KIMDB_RETURN_IF_ERROR(
        locks_->Lock(txn, LockResource::Class(c), LockMode::kX));
  }
  return Status::OK();
}

}  // namespace kimdb
