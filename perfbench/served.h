#ifndef KIMDB_PERFBENCH_SERVED_H_
#define KIMDB_PERFBENCH_SERVED_H_

// The served database (load, index, analyze, serve), the oracle checks,
// the closed-loop wire client and the in-process replay of an op stream.

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/database.h"
#include "gen.h"
#include "net/server.h"
#include "trace.h"

namespace perfbench {

struct Schema {
  kimdb::AttrId part_id = 0, x = 0, y = 0, conn = 0;
  kimdb::AttrId weight = 0, color = 0;
  std::array<kimdb::ClassId, kVehicleClasses> vehicle_class{};
};

/// A loaded database and the wire server in front of it.
struct Served {
  std::string path;  // base path: <path>.db and <path>.wal
  std::unique_ptr<kimdb::Database> db;
  std::unique_ptr<kimdb::net::Server> server;
  std::vector<kimdb::Oid> oids;  // parts or vehicles by generator index
  std::unordered_map<uint64_t, uint32_t> index_of;  // raw OID -> index
  Schema schema;
};

/// Default engine options on a file-backed database; `trace` arms the
/// flight recorder at Open with rings large enough for a traced phase.
kimdb::DatabaseOptions DbOptions(const std::string& path, bool trace);

/// Creates a fresh database at `path`, loads `d`, builds the workload's
/// index, analyzes every class, checkpoints, and starts the server.
kimdb::Status Setup(const Dataset& d, const std::string& path, bool trace,
                    Served* out);

/// Stops the server and closes the database.
kimdb::Status Shutdown(Served* s);

void RemoveDbFiles(const std::string& path);

/// Oracle checks; each returns "" for a right answer, else what was wrong.
class Checker {
 public:
  Checker(const Dataset& d, const Served& s) : d_(d), s_(s) {}

  /// A txn's PartId lookup must return exactly the part's OID.
  std::string Lookup(const Op& op, const std::vector<uint64_t>& oids) const;
  std::string Count(const Op& op, size_t n) const;
  /// A GET of part `want` must return that part: its PartId, Y and (OO1)
  /// connections as generated.
  std::string Part(const kimdb::Object& obj, uint64_t want) const;
  /// A GET of one query result must satisfy the query's predicate on the
  /// generated values.
  std::string Pick(const Op& op, const kimdb::Object& obj,
                   uint64_t want) const;
  /// Raw OIDs of the OO1 connections of the part with raw OID `raw`.
  std::vector<uint64_t> Connections(uint64_t raw) const;

 private:
  const Dataset& d_;
  const Served& s_;
};

/// Run phases, advanced by the driver. In an untraced run kMeasure is the
/// timed phase; in a traced run it is the traced phase and kUntraced the
/// untraced comparison.
enum Phase : int { kWarmup = 0, kMeasure = 1, kUntraced = 2, kStop = 3 };

/// The measured phase is split into this many equal windows; p50s and
/// throughput are medians over the windows.
inline constexpr size_t kWindows = 6;

struct ClientShared {
  std::atomic<int> phase{kWarmup};
  std::atomic<bool> spans_on{false};
  std::atomic<int64_t> measure_start_ns{0};
  std::atomic<int64_t> window_ns{1};
};

/// One request completed in kMeasure: its latency, class and window.
struct Sample {
  float us;
  uint8_t cls;  // ReqClass
  uint8_t window;
};

struct ClientResult {
  /// `sample_capacity` samples are allocated and touched up front, so the
  /// samples a run keeps add nothing to its resident set until they
  /// outgrow it.
  ClientResult(uint32_t thread, size_t sample_capacity) : spans(thread) {
    samples.resize(sample_capacity);
    samples.clear();
  }
  std::vector<Sample> samples;
  /// Requests completed, by the phase active at completion.
  std::array<uint64_t, 4> requests{};
  std::array<uint64_t, kWindows> window_requests{};
  std::array<uint64_t, kReqClasses> measure_requests{};
  uint64_t measure_commits = 0;
  uint64_t measure_round_trips = 0;
  double measure_round_trip_ns = 0;
  uint64_t measure_rows = 0;        // query result rows
  uint64_t measure_lookup_rows = 0; // rows of index lookups
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few
  std::optional<std::pair<uint32_t, int64_t>> last_write;  // part, X
  std::map<uint32_t, int64_t> replay_writes;  // replay: every acked part -> X
  SpanLog spans;
};

/// One closed-loop connection: runs its op stream until kStop, checking
/// every answer. Finishes the op in flight when the phase turns kStop.
void RunClient(const Dataset& d, const Served& s, const Checker& check,
               int conn, int n_conns, ClientShared* shared,
               ClientResult* out);

/// Replays connection `conn`'s op stream in-process, one span around each
/// engine call, for `seconds` or `max_ops` ops. Writes set X values with
/// bit 62 set so they differ from the served run's.
void Replay(const Dataset& d, Served* s, const Checker& check, int conn,
            int n_conns, double seconds, size_t max_ops, ClientResult* out);

}  // namespace perfbench

#endif  // KIMDB_PERFBENCH_SERVED_H_
