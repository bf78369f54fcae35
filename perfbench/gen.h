#ifndef KIMDB_PERFBENCH_GEN_H_
#define KIMDB_PERFBENCH_GEN_H_

// Seeded workload generation for the served benchmark: the data each
// workload loads, every connection's closed-loop op stream, and the oracle
// answer of every op, all computed here from the seed alone. The engine
// only ever receives the generated inputs.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's own PRNG, so its inputs never depend on
/// engine code.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  uint64_t s_;
};

enum class Workload { kOo1Served, kHierarchyScan, kScanUnderWrite };

const char* WorkloadName(Workload w);
std::optional<Workload> ParseWorkload(const std::string& name);
inline constexpr std::array<Workload, 3> kAllWorkloads = {
    Workload::kOo1Served, Workload::kHierarchyScan, Workload::kScanUnderWrite};

// --- data ------------------------------------------------------------------

inline constexpr int64_t kCoordRange = 100000;  // Part X/Y in [0, range)
inline constexpr int64_t kWeightRange = 10000;  // Vehicle Weight
inline constexpr int64_t kPayloadRange = 5000;  // Truck Payload
inline constexpr size_t kColors = 8;
extern const char* const kColorNames[kColors];
/// Vehicle classes, in the round-robin order vehicles are spread over.
inline constexpr size_t kVehicleClasses = 4;
extern const char* const kVehicleClassNames[kVehicleClasses];
extern const char* const kCompanyClassNames[4];

/// Parts: the OO1 graph (oo1_served) or a plain class (scan_under_write,
/// whose `conn` stays empty).
struct PartData {
  size_t n = 0;
  std::vector<int64_t> x, y;
  std::vector<std::string> type;
  std::vector<std::array<uint32_t, 3>> conn;  // OO1 connections by index
};

/// The paper's Figure-1 hierarchy: companies, and vehicles spread
/// round-robin over Vehicle, Automobile, DomesticAutomobile and Truck.
struct VehicleData {
  std::vector<uint8_t> company_detroit;  // by company index
  std::vector<std::string> company_location;
  std::vector<uint8_t> cls;       // kVehicleClassNames index
  std::vector<int64_t> weight;
  std::vector<uint32_t> maker;    // company index
  std::vector<uint8_t> color;     // kColorNames index
  std::vector<int64_t> payload;   // trucks only (0 otherwise)
  std::vector<std::string> model; // free text, sizes the records

  // Oracle tables.
  std::vector<uint64_t> weight_le;          // #vehicles with Weight <= w
  std::vector<uint64_t> detroit_weight_gt;  // #Detroit-made with Weight > w
  std::array<std::array<uint64_t, kColors>, kVehicleClasses> class_color{};
};

struct Dataset {
  Workload workload = Workload::kOo1Served;
  uint64_t seed = 0;
  PartData parts;
  VehicleData vehicles;
  std::vector<uint64_t> y_lt;  // parts: #parts with Y < k, for k in buckets
  /// Bytes of user attribute values loaded: 8 per int or reference, the
  /// length of each string. The denominator of space_amp.
  uint64_t payload_bytes = 0;
};

/// Sizes per workload: oo1_served fits the default 4 MiB buffer pool and
/// object cache; hierarchy_scan is several times the buffer pool;
/// scan_under_write fits in memory.
inline constexpr size_t kOo1Parts = 8000;
inline constexpr size_t kSuwParts = 10000;
inline constexpr size_t kCompanies = 400;
inline constexpr size_t kVehicles = 25000;
inline constexpr size_t kModelBytes = 760;
inline constexpr int64_t kYStep = 100;  // scan thresholds are multiples

Dataset Generate(Workload w, uint64_t seed);

// --- op streams ------------------------------------------------------------

enum class OpKind : uint8_t {
  kOo1Txn,       // BEGIN, lookup, depth-2 traversal GETs, SET X, COMMIT
  kWriterTxn,    // BEGIN, lookup, GET, SET X, COMMIT
  kPartScan,     // unindexed `Y < k` extent scan (+ GETs of results)
  kRangeLookup,  // indexed Weight range (+ GETs of results)
  kQuery32,      // the paper's §3.2 query (+ GETs of results)
  kOnlyScan,     // single-class scan on an unindexed attribute (+ GETs)
};

/// Query ops GET up to this many of their results, one round trip each.
inline constexpr size_t kGetsPerQuery = 5;
/// Index of the j-th result a query op GETs out of `n`.
inline size_t PickIndex(uint64_t pick, size_t j, size_t n) {
  return static_cast<size_t>((pick >> (12 * j)) % n);
}

/// The op class a round trip belongs to, for the latency families.
enum class ReqClass : uint8_t { kBegin, kLookup, kGet, kSet, kCommit, kScan };
inline constexpr size_t kReqClasses = 6;
const char* ReqClassName(ReqClass c);

struct Op {
  OpKind kind = OpKind::kOo1Txn;
  std::string oql;            // the query the op sends
  uint64_t expect_count = 0;  // oracle result count of `oql`
  uint32_t key = 0;           // part index a PartId lookup asks for
  uint32_t set_part = 0;      // part index whose X the txn writes
  int64_t set_value = 0;      // unique value written to X
  uint64_t pick = 0;          // chooses which results the op GETs
  // Predicate parameters the GET check re-evaluates.
  int64_t lo = 0, hi = 0;
  uint8_t cls = 0, color = 0;
};

/// Role of connection `conn` of `n_conns`: scan_under_write splits its
/// connections into scanners and writers; other workloads use one role.
bool IsWriterConn(Workload w, int conn, int n_conns);

/// One connection's deterministic op stream.
class OpStream {
 public:
  OpStream(const Dataset& d, int conn, int n_conns);
  Op Next();

 private:
  const Dataset& d_;
  int conn_;
  bool writer_;
  std::pair<uint32_t, uint32_t> part_;
  Rng rng_;
  uint64_t seq_ = 0;  // writes so far
  uint64_t n_ = 0;    // ops so far
};

/// True when the same seed yields identical data, op streams and oracle
/// answers, and another seed yields different data; `why` says which
/// check failed.
bool SelfTest(uint64_t seed, std::string* why);

}  // namespace perfbench

#endif  // KIMDB_PERFBENCH_GEN_H_
