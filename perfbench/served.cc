#include "served.h"

#include <cstdio>

#include "exec/exec_context.h"
#include "net/client.h"

namespace perfbench {

using kimdb::AttributeSpec;
using kimdb::ClassId;
using kimdb::Database;
using kimdb::Domain;
using kimdb::Oid;
using kimdb::Result;
using kimdb::Status;
using kimdb::Value;
namespace net = kimdb::net;

namespace {

constexpr size_t kLoadBatch = 2000;  // inserts per load transaction
// Tags the X values set-up writes when it ages a class; the writers tag
// theirs with their connection number (OpStream).
constexpr int64_t kAgedXTag = int64_t{15} << 40;

using Attrs = std::vector<std::pair<std::string, Value>>;

/// Inserts `n` objects in batched transactions; `make(i)` gives object i's
/// class and attributes.
template <typename Make>
Status InsertAll(Database* db, size_t n, Make make, std::vector<Oid>* oids) {
  for (size_t i = 0; i < n; i += kLoadBatch) {
    KIMDB_ASSIGN_OR_RETURN(uint64_t txn, db->Begin());
    for (size_t j = i; j < std::min(n, i + kLoadBatch); ++j) {
      auto [cls, attrs] = make(j);
      KIMDB_ASSIGN_OR_RETURN(Oid oid, db->Insert(txn, cls, attrs));
      oids->push_back(oid);
    }
    KIMDB_RETURN_IF_ERROR(db->Commit(txn));
  }
  return Status::OK();
}

Result<kimdb::AttrId> Attr(Database* db, const char* cls, const char* attr) {
  KIMDB_ASSIGN_OR_RETURN(ClassId id, db->FindClass(cls));
  KIMDB_ASSIGN_OR_RETURN(const kimdb::AttributeDef* def,
                         db->catalog().ResolveAttr(id, attr));
  return def->id;
}

Status LoadParts(const Dataset& d, Served* s) {
  Database* db = s->db.get();
  const PartData& p = d.parts;
  const bool graph = !p.conn.empty();
  std::vector<AttributeSpec> attrs = {{"PartId", Domain::Int()},
                                      {"X", Domain::Int()},
                                      {"Y", Domain::Int()},
                                      {"Type", Domain::String()}};
  if (graph) {
    attrs.emplace_back("Connections",
                       Domain::SetOf(Domain::Ref(kimdb::kRootClassId)));
  }
  KIMDB_ASSIGN_OR_RETURN(ClassId part, db->CreateClass("Part", {}, attrs));
  KIMDB_RETURN_IF_ERROR(InsertAll(
      db, p.n,
      [&](size_t i) {
        Attrs a = {{"PartId", Value::Int(static_cast<int64_t>(i))},
                   {"X", Value::Int(p.x[i])},
                   {"Y", Value::Int(p.y[i])},
                   {"Type", Value::Str(p.type[i])}};
        if (graph) {
          // Placeholder references of the final encoded size, so the
          // second pass updates records in place. A workaround: the engine
          // packs relocated records so poorly that the natural load
          // (insert, then connect) grows the database to 17 MB, four times
          // the buffer pool. oo1_served therefore does not show that
          // defect; scan_under_write does (space_amp).
          Oid placeholder = i == 0 ? kimdb::kNilOid : s->oids[0];
          a.emplace_back("Connections",
                         Value::List(std::vector<Value>(
                             3, Value::Ref(placeholder))));
        }
        return std::make_pair("Part", a);
      },
      &s->oids));
  if (graph) {
    // Second pass: connections may point forward.
    for (size_t i = 0; i < p.n; i += kLoadBatch) {
      KIMDB_ASSIGN_OR_RETURN(uint64_t txn, db->Begin());
      for (size_t j = i; j < std::min(p.n, i + kLoadBatch); ++j) {
        std::vector<Value> refs;
        for (uint32_t t : p.conn[j]) refs.push_back(Value::Ref(s->oids[t]));
        KIMDB_RETURN_IF_ERROR(
            db->Set(txn, s->oids[j], "Connections", Value::List(refs)));
      }
      KIMDB_RETURN_IF_ERROR(db->Commit(txn));
    }
    KIMDB_ASSIGN_OR_RETURN(s->schema.conn, Attr(db, "Part", "Connections"));
  } else {
    // Age the class: write every part's X once with a value at least as
    // long as the writers' (see kAgedXTag), so the run starts from the
    // layout their updates converge to instead of relocating records
    // while it measures.
    for (size_t i = 0; i < p.n; i += kLoadBatch) {
      KIMDB_ASSIGN_OR_RETURN(uint64_t txn, db->Begin());
      for (size_t j = i; j < std::min(p.n, i + kLoadBatch); ++j) {
        KIMDB_RETURN_IF_ERROR(
            db->Set(txn, s->oids[j], "X",
                    Value::Int(kAgedXTag | static_cast<int64_t>(j))));
      }
      KIMDB_RETURN_IF_ERROR(db->Commit(txn));
    }
  }
  KIMDB_RETURN_IF_ERROR(
      db->indexes()
          .CreateIndex(kimdb::IndexKind::kSingleClass, part, {"PartId"})
          .status());
  KIMDB_RETURN_IF_ERROR(db->AnalyzeClass("Part"));
  KIMDB_ASSIGN_OR_RETURN(s->schema.part_id, Attr(db, "Part", "PartId"));
  KIMDB_ASSIGN_OR_RETURN(s->schema.x, Attr(db, "Part", "X"));
  KIMDB_ASSIGN_OR_RETURN(s->schema.y, Attr(db, "Part", "Y"));
  return Status::OK();
}

Status LoadVehicles(const Dataset& d, Served* s) {
  Database* db = s->db.get();
  const VehicleData& v = d.vehicles;
  KIMDB_ASSIGN_OR_RETURN(
      ClassId company,
      db->CreateClass("Company", {},
                      {{"Name", Domain::String()},
                       {"Location", Domain::String()}}));
  KIMDB_RETURN_IF_ERROR(db->CreateClass("AutoCompany", {"Company"}, {}).status());
  KIMDB_RETURN_IF_ERROR(
      db->CreateClass("TruckCompany", {"Company"}, {}).status());
  KIMDB_RETURN_IF_ERROR(
      db->CreateClass("JapaneseAutoCompany", {"AutoCompany"}, {}).status());
  KIMDB_ASSIGN_OR_RETURN(
      ClassId vehicle,
      db->CreateClass("Vehicle", {},
                      {{"Weight", Domain::Int()},
                       {"Manufacturer", Domain::Ref(company)},
                       {"Color", Domain::String()},
                       {"Model", Domain::String()}}));
  KIMDB_RETURN_IF_ERROR(db->CreateClass("Automobile", {"Vehicle"}, {}).status());
  KIMDB_RETURN_IF_ERROR(
      db->CreateClass("DomesticAutomobile", {"Automobile"}, {}).status());
  KIMDB_RETURN_IF_ERROR(
      db->CreateClass("Truck", {"Vehicle"}, {{"Payload", Domain::Int()}})
          .status());

  std::vector<Oid> companies;
  KIMDB_RETURN_IF_ERROR(InsertAll(
      db, v.company_location.size(),
      [&](size_t i) {
        return std::make_pair(
            kCompanyClassNames[i % 4],
            Attrs{{"Name", Value::Str("company-" + std::to_string(i))},
                  {"Location", Value::Str(v.company_location[i])}});
      },
      &companies));
  KIMDB_RETURN_IF_ERROR(InsertAll(
      db, v.weight.size(),
      [&](size_t i) {
        Attrs a = {{"Weight", Value::Int(v.weight[i])},
                   {"Manufacturer", Value::Ref(companies[v.maker[i]])},
                   {"Color", Value::Str(kColorNames[v.color[i]])},
                   {"Model", Value::Str(v.model[i])}};
        if (v.cls[i] == 3) a.emplace_back("Payload", Value::Int(v.payload[i]));
        return std::make_pair(kVehicleClassNames[v.cls[i]], a);
      },
      &s->oids));
  KIMDB_RETURN_IF_ERROR(
      db->indexes()
          .CreateIndex(kimdb::IndexKind::kClassHierarchy, vehicle, {"Weight"})
          .status());
  KIMDB_RETURN_IF_ERROR(db->AnalyzeClass("Company"));
  KIMDB_RETURN_IF_ERROR(db->AnalyzeClass("Vehicle"));
  KIMDB_ASSIGN_OR_RETURN(s->schema.weight, Attr(db, "Vehicle", "Weight"));
  KIMDB_ASSIGN_OR_RETURN(s->schema.color, Attr(db, "Vehicle", "Color"));
  for (size_t c = 0; c < kVehicleClasses; ++c) {
    KIMDB_ASSIGN_OR_RETURN(s->schema.vehicle_class[c],
                           db->FindClass(kVehicleClassNames[c]));
  }
  return Status::OK();
}

}  // namespace

kimdb::DatabaseOptions DbOptions(const std::string& path, bool trace) {
  kimdb::DatabaseOptions o;
  o.path = path;
  o.trace_enabled = trace;
  if (trace) o.trace_ring_events = 1u << 16;
  return o;
}

void RemoveDbFiles(const std::string& path) {
  std::remove((path + ".db").c_str());
  std::remove((path + ".wal").c_str());
}

Status Setup(const Dataset& d, const std::string& path, bool trace,
             Served* out) {
  RemoveDbFiles(path);
  out->path = path;
  KIMDB_ASSIGN_OR_RETURN(out->db, Database::Open(DbOptions(path, trace)));
  if (d.workload == Workload::kHierarchyScan) {
    KIMDB_RETURN_IF_ERROR(LoadVehicles(d, out));
  } else {
    KIMDB_RETURN_IF_ERROR(LoadParts(d, out));
  }
  for (size_t i = 0; i < out->oids.size(); ++i) {
    out->index_of.emplace(out->oids[i].raw(), static_cast<uint32_t>(i));
  }
  KIMDB_RETURN_IF_ERROR(out->db->Checkpoint());
  KIMDB_ASSIGN_OR_RETURN(out->server,
                         net::Server::Start(out->db.get(), net::ServerOptions{}));
  return Status::OK();
}

Status Shutdown(Served* s) {
  s->server.reset();  // drains in-flight requests
  Status st = s->db != nullptr ? s->db->Close() : Status::OK();
  s->db.reset();
  return st;
}

// --- oracle checks ---------------------------------------------------------

std::string Checker::Lookup(const Op& op,
                            const std::vector<uint64_t>& oids) const {
  if (oids.size() != 1 || oids[0] != s_.oids[op.key].raw()) {
    return "lookup of PartId " + std::to_string(op.key) + " returned " +
           std::to_string(oids.size()) + " rows, not its one part";
  }
  return "";
}

std::string Checker::Count(const Op& op, size_t n) const {
  if (n == op.expect_count) return "";
  return "'" + op.oql + "' returned " + std::to_string(n) + " rows, oracle " +
         std::to_string(op.expect_count);
}

std::string Checker::Part(const kimdb::Object& obj, uint64_t want) const {
  auto it = s_.index_of.find(want);
  if (it == s_.index_of.end() || obj.oid().raw() != want) {
    return "GET " + std::to_string(want) + " returned another object";
  }
  const uint32_t i = it->second;
  const Value& pid = obj.Get(s_.schema.part_id);
  const Value& y = obj.Get(s_.schema.y);
  if (pid.kind() != Value::Kind::kInt || pid.as_int() != i ||
      y.kind() != Value::Kind::kInt || y.as_int() != d_.parts.y[i]) {
    return "GET of part " + std::to_string(i) + " returned wrong PartId or Y";
  }
  if (!d_.parts.conn.empty()) {
    const Value& c = obj.Get(s_.schema.conn);
    std::vector<uint64_t> want_conn = Connections(want);
    bool ok = c.is_collection() && c.elements().size() == want_conn.size();
    for (size_t k = 0; ok && k < want_conn.size(); ++k) {
      const Value& e = c.elements()[k];
      ok = e.kind() == Value::Kind::kRef && e.as_ref().raw() == want_conn[k];
    }
    if (!ok) return "GET of part " + std::to_string(i) + ": wrong connections";
  }
  return "";
}

std::string Checker::Pick(const Op& op, const kimdb::Object& obj,
                          uint64_t want) const {
  if (op.kind == OpKind::kPartScan) {
    std::string err = Part(obj, want);
    if (!err.empty()) return err;
    if (obj.Get(s_.schema.y).as_int() >= op.hi) return "scan row fails Y < k";
    return "";
  }
  auto it = s_.index_of.find(want);
  if (it == s_.index_of.end() || obj.oid().raw() != want) {
    return "GET " + std::to_string(want) + " returned another object";
  }
  const uint32_t i = it->second;
  const VehicleData& v = d_.vehicles;
  const Value& w = obj.Get(s_.schema.weight);
  const Value& color = obj.Get(s_.schema.color);
  bool ok = obj.class_id() == s_.schema.vehicle_class[v.cls[i]] &&
            w.kind() == Value::Kind::kInt && w.as_int() == v.weight[i] &&
            color.kind() == Value::Kind::kString &&
            color.as_string() == kColorNames[v.color[i]];
  switch (op.kind) {
    case OpKind::kRangeLookup:
      ok = ok && v.weight[i] >= op.lo && v.weight[i] < op.hi;
      break;
    case OpKind::kQuery32:
      ok = ok && v.weight[i] > op.lo && v.company_detroit[v.maker[i]];
      break;
    case OpKind::kOnlyScan:
      ok = ok && v.cls[i] == op.cls && v.color[i] == op.color;
      break;
    default:
      break;
  }
  return ok ? "" : "result of '" + op.oql + "' does not match its predicate";
}

std::vector<uint64_t> Checker::Connections(uint64_t raw) const {
  std::vector<uint64_t> out;
  for (uint32_t t : d_.parts.conn[s_.index_of.at(raw)]) {
    out.push_back(s_.oids[t].raw());
  }
  return out;
}

// --- the wire client -------------------------------------------------------

namespace {

class WireClient {
 public:
  WireClient(const Dataset& d, const Served& s, const Checker& check,
             net::Client* client, ClientShared* shared, ClientResult* out)
      : d_(d), s_(s), check_(check), c_(client), shared_(shared), out_(out) {}

  /// Runs one op; false once the connection is unusable.
  bool Run(const Op& op, uint64_t req) {
    log_ = shared_->spans_on.load(std::memory_order_relaxed) ? &out_->spans
                                                             : nullptr;
    req_ = req;
    bool txn = op.kind == OpKind::kOo1Txn || op.kind == OpKind::kWriterTxn;
    ScopedSpan root(log_, txn ? "client.txn" : "client.query", 0, req);
    root_ = root.id();
    return txn ? RunTxn(op) : RunQuery(op);
  }

 private:
  enum class Outcome { kOk, kWrong, kBroken };

  static net::Request Get(uint64_t oid) {
    net::Request r;
    r.type = net::MsgType::kGet;
    r.oid = oid;
    return r;
  }
  static net::Request Query(const std::string& oql) {
    net::Request r;
    r.type = net::MsgType::kQuery;
    r.text = oql;
    return r;
  }
  static net::Request Txn(net::MsgType type, uint64_t txn) {
    net::Request r;
    r.type = type;
    r.txn = txn;
    return r;
  }

  void Wrong(const std::string& why) {
    ++out_->failed;
    if (out_->errors.size() < 5) out_->errors.push_back(why);
  }

  /// Writes `reqs` back-to-back, then reads one response per request,
  /// timing each from the send. All of `reqs` share `cls`.
  Outcome RoundTrip(const std::vector<net::Request>& reqs, ReqClass cls,
                    std::vector<net::Response>* resps) {
    std::string buf;
    for (const net::Request& r : reqs) net::EncodeRequest(r, &buf);
    out_->attempted += reqs.size();
    resps->clear();
    const int64_t start = NowNs();
    if (!c_->SendRaw(buf).ok()) {
      Wrong("send failed");
      return Outcome::kBroken;
    }
    int phase = shared_->phase.load(std::memory_order_relaxed);
    for (size_t i = 0; i < reqs.size(); ++i) {
      Result<net::Response> r = c_->ReceiveResponse();
      if (!r.ok()) {
        Wrong("receive failed: " + r.status().ToString());
        return Outcome::kBroken;
      }
      const int64_t end = NowNs();
      // Acquire: kMeasure publishes measure_start_ns and window_ns.
      phase = shared_->phase.load(std::memory_order_acquire);
      ++out_->requests[phase];
      if (phase == kMeasure) {
        const size_t win = std::min<size_t>(
            kWindows - 1,
            static_cast<size_t>((end - shared_->measure_start_ns.load()) /
                                shared_->window_ns.load()));
        out_->samples.push_back(Sample{static_cast<float>((end - start) / 1e3),
                                       static_cast<uint8_t>(cls),
                                       static_cast<uint8_t>(win)});
        ++out_->window_requests[win];
        ++out_->measure_requests[static_cast<size_t>(cls)];
      }
      resps->push_back(std::move(r).value());
    }
    const int64_t end = NowNs();
    if (phase == kMeasure) {
      ++out_->measure_round_trips;
      out_->measure_round_trip_ns += static_cast<double>(end - start);
    }
    if (log_ != nullptr) {
      static const char* const kNames[kReqClasses] = {
          "client.begin", "client.lookup", "client.get",
          "client.set",   "client.commit", "client.scan"};
      log_->Add(Span{log_->NewId(), root_, req_,
                     kNames[static_cast<size_t>(cls)], start, end});
    }
    for (const net::Response& r : *resps) {
      if (r.status != kimdb::StatusCode::kOk) {
        Wrong(std::string(ReqClassName(cls)) + " failed: " + r.message);
        return Outcome::kWrong;
      }
    }
    return Outcome::kOk;
  }

  /// GETs `oids` in one round trip and decodes the replies.
  Outcome GetObjects(const std::vector<uint64_t>& oids,
                     std::vector<kimdb::Object>* objs) {
    std::vector<net::Request> reqs;
    for (uint64_t o : oids) reqs.push_back(Get(o));
    std::vector<net::Response> resps;
    Outcome oc = RoundTrip(reqs, ReqClass::kGet, &resps);
    if (oc != Outcome::kOk) return oc;
    objs->clear();
    for (const net::Response& r : resps) {
      Result<kimdb::Object> obj = kimdb::Object::Decode(r.object_bytes);
      if (!obj.ok()) {
        Wrong("GET reply does not decode");
        return Outcome::kWrong;
      }
      objs->push_back(std::move(obj).value());
    }
    return Outcome::kOk;
  }

  bool Check(const std::string& err) {
    if (!err.empty()) Wrong(err);
    return err.empty();
  }

  void CountRows(size_t rows, bool lookup) {
    if (shared_->phase.load(std::memory_order_relaxed) != kMeasure) return;
    out_->measure_rows += rows;
    if (lookup) out_->measure_lookup_rows += rows;
  }

  bool RunTxn(const Op& op) {
    std::vector<net::Response> resps;
    Outcome oc = RoundTrip({Txn(net::MsgType::kTxnBegin, 0)}, ReqClass::kBegin,
                           &resps);
    if (oc != Outcome::kOk) return oc != Outcome::kBroken;
    const uint64_t txn = resps[0].u64;
    oc = TxnBody(op, txn);
    // Leave no transaction open behind a wrong answer.
    if (oc == Outcome::kWrong) (void)c_->Abort(txn);
    return oc != Outcome::kBroken;
  }

  Outcome TxnBody(const Op& op, uint64_t txn) {
    std::vector<net::Response> resps;
    Outcome oc = RoundTrip({Query(op.oql)}, ReqClass::kLookup, &resps);
    if (oc != Outcome::kOk) return oc;
    CountRows(resps[0].oids.size(), true);
    if (!Check(check_.Lookup(op, resps[0].oids))) return Outcome::kWrong;

    // OO1 traverses two levels from the looked-up part; a writer reads the
    // part it is about to update.
    std::vector<uint64_t> level = {resps[0].oids[0]};
    const int levels = op.kind == OpKind::kOo1Txn ? 3 : 1;
    std::vector<kimdb::Object> objs;
    for (int depth = 0; depth < levels; ++depth) {
      oc = GetObjects(level, &objs);
      if (oc != Outcome::kOk) return oc;
      std::vector<uint64_t> next;
      for (size_t k = 0; k < objs.size(); ++k) {
        if (!Check(check_.Part(objs[k], level[k]))) return Outcome::kWrong;
        if (depth + 1 < levels) {
          for (uint64_t c : check_.Connections(level[k])) next.push_back(c);
        }
      }
      level = std::move(next);
    }

    net::Request set;
    set.type = net::MsgType::kTxnSet;
    set.txn = txn;
    set.oid = s_.oids[op.set_part].raw();
    set.text = "X";
    set.value = Value::Int(op.set_value);
    oc = RoundTrip({set}, ReqClass::kSet, &resps);
    if (oc != Outcome::kOk) return oc;
    oc = RoundTrip({Txn(net::MsgType::kTxnCommit, txn)}, ReqClass::kCommit,
                   &resps);
    if (oc == Outcome::kOk) {
      out_->last_write = std::make_pair(op.set_part, op.set_value);
      if (shared_->phase.load(std::memory_order_relaxed) == kMeasure) {
        ++out_->measure_commits;
      }
    }
    return oc;
  }

  bool RunQuery(const Op& op) {
    const bool lookup = op.kind == OpKind::kRangeLookup;
    std::vector<net::Response> resps;
    Outcome oc = RoundTrip({Query(op.oql)},
                           lookup ? ReqClass::kLookup : ReqClass::kScan, &resps);
    if (oc != Outcome::kOk) return oc != Outcome::kBroken;
    const std::vector<uint64_t> rows = std::move(resps[0].oids);
    CountRows(rows.size(), lookup);
    if (!Check(check_.Count(op, rows.size()))) return true;
    std::vector<kimdb::Object> objs;
    for (size_t j = 0; j < std::min(kGetsPerQuery, rows.size()); ++j) {
      const uint64_t pick = rows[PickIndex(op.pick, j, rows.size())];
      oc = GetObjects({pick}, &objs);
      if (oc == Outcome::kBroken) return false;
      if (oc == Outcome::kOk && !Check(check_.Pick(op, objs[0], pick))) break;
    }
    return true;
  }

  const Dataset& d_;
  const Served& s_;
  const Checker& check_;
  net::Client* c_;
  ClientShared* shared_;
  ClientResult* out_;
  SpanLog* log_ = nullptr;
  uint64_t req_ = 0;
  uint64_t root_ = 0;
};

}  // namespace

void RunClient(const Dataset& d, const Served& s, const Checker& check,
               int conn, int n_conns, ClientShared* shared,
               ClientResult* out) {
  auto client = net::Client::Connect("127.0.0.1", s.server->port());
  if (!client.ok()) {
    ++out->attempted;
    ++out->failed;
    out->errors.push_back("connect failed: " + client.status().ToString());
    return;
  }
  WireClient wire(d, s, check, client->get(), shared, out);
  OpStream stream(d, conn, n_conns);
  uint64_t req = static_cast<uint64_t>(conn + 1) << 40;
  while (shared->phase.load(std::memory_order_relaxed) != kStop) {
    if (!wire.Run(stream.Next(), ++req)) break;
  }
}

// --- in-process replay -----------------------------------------------------

void Replay(const Dataset& d, Served* s, const Checker& check, int conn,
            int n_conns, double seconds, size_t max_ops, ClientResult* out) {
  Database* db = s->db.get();
  SpanLog* log = &out->spans;
  auto wrong = [out](const std::string& why) {
    ++out->failed;
    if (out->errors.size() < 5) out->errors.push_back("replay: " + why);
    return false;
  };
  // parse -> plan -> execute, one span each.
  auto query = [&](const std::string& oql, uint64_t parent, uint64_t req,
                   std::vector<Oid>* rows) {
    out->attempted += 3;
    Result<kimdb::lang::Statement> stmt = [&] {
      ScopedSpan sp(log, "lang.ParseStatement", parent, req);
      return db->parser().ParseStatement(oql);
    }();
    if (!stmt.ok()) return wrong("parse: " + stmt.status().ToString());
    Result<kimdb::QueryPlan> plan = [&] {
      ScopedSpan sp(log, "query.Plan", parent, req);
      return db->query_engine().Plan(stmt->query);
    }();
    if (!plan.ok()) return wrong("plan: " + plan.status().ToString());
    kimdb::exec::ExecContext ctx(&db->buffer_pool());
    Result<std::vector<Oid>> r = [&] {
      ScopedSpan sp(log, "exec.Execute", parent, req);
      return db->query_engine().Execute(stmt->query, &ctx);
    }();
    if (!r.ok()) return wrong("execute: " + r.status().ToString());
    *rows = std::move(r).value();
    return true;
  };
  auto get = [&](uint64_t oid, uint64_t parent, uint64_t req,
                 kimdb::Object* obj) {
    ++out->attempted;
    Result<kimdb::Object> r = [&] {
      ScopedSpan sp(log, "object.Get", parent, req);
      return db->store().Get(Oid(oid));
    }();
    if (!r.ok()) return wrong("get: " + r.status().ToString());
    *obj = std::move(r).value();
    return true;
  };

  OpStream stream(d, conn, n_conns);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint64_t req = (static_cast<uint64_t>(conn + 1) << 40) | (1ull << 39);
  for (size_t n = 0; n < max_ops && NowNs() < deadline; ++n) {
    Op op = stream.Next();
    op.set_value |= int64_t{1} << 62;
    ++req;
    std::vector<Oid> rows;
    kimdb::Object obj;
    if (op.kind == OpKind::kOo1Txn || op.kind == OpKind::kWriterTxn) {
      ScopedSpan root(log, "replay.txn", 0, req);
      ++out->attempted;
      Result<uint64_t> txn = [&] {
        ScopedSpan sp(log, "txn.Begin", root.id(), req);
        return db->Begin();
      }();
      if (!txn.ok()) {
        wrong("begin: " + txn.status().ToString());
        continue;
      }
      bool ok = query(op.oql, root.id(), req, &rows);
      std::vector<uint64_t> level;
      for (Oid o : rows) level.push_back(o.raw());
      if (ok) {
        const std::string err = check.Lookup(op, level);
        ok = err.empty() || wrong(err);
      }
      const int levels = op.kind == OpKind::kOo1Txn ? 3 : 1;
      for (int depth = 0; ok && depth < levels; ++depth) {
        std::vector<uint64_t> next;
        for (uint64_t o : level) {
          ok = get(o, root.id(), req, &obj) &&
               (check.Part(obj, o).empty() || wrong(check.Part(obj, o)));
          if (!ok) break;
          if (depth + 1 < levels) {
            for (uint64_t c : check.Connections(o)) next.push_back(c);
          }
        }
        level = std::move(next);
      }
      if (ok) {
        ++out->attempted;
        ScopedSpan sp(log, "txn.Set", root.id(), req);
        Status st = db->Set(*txn, s->oids[op.set_part], "X",
                            Value::Int(op.set_value));
        ok = st.ok() || wrong("set: " + st.ToString());
      }
      if (!ok) {
        (void)db->Abort(*txn);
        continue;
      }
      ++out->attempted;
      Status st = [&] {
        ScopedSpan sp(log, "txn.Commit", root.id(), req);
        return db->Commit(*txn);
      }();
      if (st.ok()) {
        out->replay_writes[op.set_part] = op.set_value;
      } else {
        wrong("commit: " + st.ToString());
      }
    } else {
      ScopedSpan root(log, "replay.query", 0, req);
      if (!query(op.oql, root.id(), req, &rows)) continue;
      const std::string err = check.Count(op, rows.size());
      if (!err.empty()) {
        wrong(err);
        continue;
      }
      for (size_t j = 0; j < std::min(kGetsPerQuery, rows.size()); ++j) {
        const uint64_t pick = rows[PickIndex(op.pick, j, rows.size())].raw();
        if (get(pick, root.id(), req, &obj) &&
            !check.Pick(op, obj, pick).empty()) {
          wrong(check.Pick(op, obj, pick));
        }
      }
    }
  }
}

}  // namespace perfbench
