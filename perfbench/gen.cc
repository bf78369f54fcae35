#include "gen.h"

#include <algorithm>

namespace perfbench {

const char* const kColorNames[kColors] = {"red",   "blue",  "green", "black",
                                          "white", "grey",  "brown", "yellow"};
const char* const kVehicleClassNames[kVehicleClasses] = {
    "Vehicle", "Automobile", "DomesticAutomobile", "Truck"};
const char* const kCompanyClassNames[4] = {"Company", "AutoCompany",
                                           "TruckCompany",
                                           "JapaneseAutoCompany"};

namespace {

// Op mixes repeat with a fixed period per connection, so every run does
// the same share of each op kind. The ratios are not taken from any
// measured traffic: they are the smallest shares that keep every reported
// percentile above its sample floor in a 30 s run.
// oo1_served: one `Y < k` scan per 15 ops, so the workload reports scan
// latency at all.
constexpr uint64_t kOo1Period = 15;
// hierarchy_scan: per 20 ops, three §3.2 queries and one only-scope scan;
// the rest are Weight index ranges. Scans hold about 95% of a connection's
// time; the ranges and the GETs after each query keep the lookup and GET
// p99s above 1000 samples.
constexpr uint64_t kHierarchyPeriod = 20;
constexpr uint64_t kQuery32Slots[] = {0, 7, 13};
constexpr uint64_t kOnlyScanSlot = 4;
// §3.2 thresholds stay below this, so most vehicles qualify and a scan
// beats the Weight index.
constexpr int64_t kQuery32MaxWeight = 2000;
// Width of the selective Weight index ranges.
constexpr int64_t kRangeWidth = 4;

void GenerateParts(Dataset* d, size_t n, bool graph, Rng* rng) {
  PartData& p = d->parts;
  p.n = n;
  p.x.resize(n);
  p.y.resize(n);
  d->payload_bytes = n * 3 * 8;  // PartId, X, Y
  for (size_t i = 0; i < n; ++i) {
    p.x[i] = static_cast<int64_t>(rng->Uniform(kCoordRange));
    p.y[i] = static_cast<int64_t>(rng->Uniform(kCoordRange));
    // OO1's part type: a short string.
    std::string type(6 + rng->Uniform(9), 'a');
    for (char& c : type) c = static_cast<char>('a' + rng->Uniform(26));
    d->payload_bytes += type.size();
    p.type.push_back(std::move(type));
  }
  if (graph) {
    // OO1: three connections per part, 90% to one of the nearest 1%.
    p.conn.resize(n);
    const int64_t zone = std::max<int64_t>(1, static_cast<int64_t>(n) / 100);
    const int64_t sn = static_cast<int64_t>(n);
    for (size_t i = 0; i < n; ++i) {
      for (auto& target : p.conn[i]) {
        int64_t t;
        if (rng->NextDouble() < 0.9) {
          int64_t off = static_cast<int64_t>(rng->Uniform(2 * zone + 1)) - zone;
          t = ((static_cast<int64_t>(i) + off) % sn + sn) % sn;
        } else {
          t = static_cast<int64_t>(rng->Uniform(n));
        }
        target = static_cast<uint32_t>(t);
      }
    }
    d->payload_bytes += n * 3 * 8;
  }
  d->y_lt.assign(static_cast<size_t>(kCoordRange / kYStep) + 1, 0);
  for (int64_t y : p.y) ++d->y_lt[static_cast<size_t>(y / kYStep) + 1];
  for (size_t b = 1; b < d->y_lt.size(); ++b) d->y_lt[b] += d->y_lt[b - 1];
}

void GenerateVehicles(Dataset* d, Rng* rng) {
  VehicleData& v = d->vehicles;
  uint64_t bytes = 0;
  for (size_t i = 0; i < kCompanies; ++i) {
    bool detroit = rng->NextDouble() < 0.3;
    v.company_detroit.push_back(detroit ? 1 : 0);
    v.company_location.push_back(
        detroit ? "Detroit" : "City-" + std::to_string(rng->Uniform(100)));
    bytes += v.company_location.back().size() +
             ("company-" + std::to_string(i)).size();
  }
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  for (size_t i = 0; i < kVehicles; ++i) {
    uint8_t cls = static_cast<uint8_t>(i % kVehicleClasses);
    v.cls.push_back(cls);
    v.weight.push_back(static_cast<int64_t>(rng->Uniform(kWeightRange)));
    v.maker.push_back(static_cast<uint32_t>(rng->Uniform(kCompanies)));
    v.color.push_back(static_cast<uint8_t>(rng->Uniform(kColors)));
    v.payload.push_back(cls == 3 ? static_cast<int64_t>(
                                       rng->Uniform(kPayloadRange))
                                 : 0);
    std::string model(kModelBytes, 'a');
    for (char& c : model) c = kAlphabet[rng->Uniform(sizeof(kAlphabet) - 1)];
    v.model.push_back(std::move(model));
    bytes += 8 + 8 + kModelBytes + std::string(kColorNames[v.color.back()]).size() +
             (cls == 3 ? 8 : 0);
  }
  d->payload_bytes = bytes;

  v.weight_le.assign(static_cast<size_t>(kWeightRange), 0);
  v.detroit_weight_gt.assign(static_cast<size_t>(kWeightRange), 0);
  std::vector<uint64_t> detroit_at(static_cast<size_t>(kWeightRange), 0);
  for (size_t i = 0; i < kVehicles; ++i) {
    ++v.weight_le[static_cast<size_t>(v.weight[i])];
    if (v.company_detroit[v.maker[i]]) {
      ++detroit_at[static_cast<size_t>(v.weight[i])];
    }
    ++v.class_color[v.cls[i]][v.color[i]];
  }
  for (size_t w = 1; w < v.weight_le.size(); ++w) {
    v.weight_le[w] += v.weight_le[w - 1];
  }
  uint64_t above = 0;
  for (size_t w = v.detroit_weight_gt.size(); w-- > 0;) {
    v.detroit_weight_gt[w] = above;
    above += detroit_at[w];
  }
}

uint64_t SeedFor(Workload w, uint64_t seed) {
  return seed * 0x100000001b3ull + static_cast<uint64_t>(w) * 7919 + 1;
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kOo1Served:
      return "oo1_served";
    case Workload::kHierarchyScan:
      return "hierarchy_scan";
    case Workload::kScanUnderWrite:
      return "scan_under_write";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : kAllWorkloads) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* ReqClassName(ReqClass c) {
  switch (c) {
    case ReqClass::kBegin:
      return "begin";
    case ReqClass::kLookup:
      return "lookup";
    case ReqClass::kGet:
      return "get";
    case ReqClass::kSet:
      return "set";
    case ReqClass::kCommit:
      return "commit";
    case ReqClass::kScan:
      return "scan";
  }
  return "?";
}

Dataset Generate(Workload w, uint64_t seed) {
  Dataset d;
  d.workload = w;
  d.seed = seed;
  Rng rng(SeedFor(w, seed));
  switch (w) {
    case Workload::kOo1Served:
      GenerateParts(&d, kOo1Parts, /*graph=*/true, &rng);
      break;
    case Workload::kScanUnderWrite:
      GenerateParts(&d, kSuwParts, /*graph=*/false, &rng);
      break;
    case Workload::kHierarchyScan:
      GenerateVehicles(&d, &rng);
      break;
  }
  return d;
}

bool IsWriterConn(Workload w, int conn, int n_conns) {
  switch (w) {
    case Workload::kOo1Served:
      return true;
    case Workload::kHierarchyScan:
      return false;
    case Workload::kScanUnderWrite:
      return conn >= n_conns / 2;  // the upper half writes
  }
  return false;
}

namespace {

/// Half-open part-index range connection `conn` writes.
std::pair<uint32_t, uint32_t> WritePartition(const Dataset& d, int conn,
                                             int n_conns) {
  int writers = 0, rank = 0;
  for (int c = 0; c < n_conns; ++c) {
    if (!IsWriterConn(d.workload, c, n_conns)) continue;
    if (c == conn) rank = writers;
    ++writers;
  }
  if (writers == 0) return {0, 0};
  uint64_t n = d.parts.n;
  return {static_cast<uint32_t>(n * static_cast<uint64_t>(rank) / writers),
          static_cast<uint32_t>(n * static_cast<uint64_t>(rank + 1) / writers)};
}

}  // namespace

OpStream::OpStream(const Dataset& d, int conn, int n_conns)
    : d_(d),
      conn_(conn),
      writer_(IsWriterConn(d.workload, conn, n_conns)),
      part_(WritePartition(d, conn, n_conns)),
      rng_(SeedFor(d.workload, d.seed) ^
           (0xa5a5a5a5ull * static_cast<uint64_t>(conn + 1))) {}

Op OpStream::Next() {
  Op op;
  op.pick = rng_.Next();
  // Connections start at different points of the mix's period.
  const uint64_t slot = n_++ + static_cast<uint64_t>(conn_) * 7;
  auto part_scan = [&] {
    op.kind = OpKind::kPartScan;
    uint64_t bucket = 1 + rng_.Uniform(d_.y_lt.size() - 1);
    op.hi = static_cast<int64_t>(bucket) * kYStep;
    op.oql = "select Part where Y < " + std::to_string(op.hi);
    op.expect_count = d_.y_lt[bucket];
  };
  auto lookup = [&](uint32_t key) {
    op.key = key;
    op.oql = "select Part only where PartId = " + std::to_string(op.key);
    op.expect_count = 1;
  };
  auto write_txn = [&](OpKind kind) {
    op.kind = kind;
    op.set_part = part_.first +
                  static_cast<uint32_t>(rng_.Uniform(part_.second - part_.first));
    // Unique across connections and ops, so a read names its writer.
    op.set_value = (static_cast<int64_t>(conn_ + 1) << 40) |
                   static_cast<int64_t>(++seq_);
  };
  switch (d_.workload) {
    case Workload::kOo1Served:
      if (slot % kOo1Period == 0) {
        part_scan();
      } else {
        write_txn(OpKind::kOo1Txn);
        lookup(static_cast<uint32_t>(rng_.Uniform(d_.parts.n)));
      }
      break;
    case Workload::kScanUnderWrite:
      // Writers look up, read and update parts of their own partition.
      if (writer_) {
        write_txn(OpKind::kWriterTxn);
        lookup(op.set_part);
      } else {
        part_scan();
      }
      break;
    case Workload::kHierarchyScan: {
      const VehicleData& v = d_.vehicles;
      const uint64_t r = slot % kHierarchyPeriod;
      if (r == kQuery32Slots[0] || r == kQuery32Slots[1] ||
          r == kQuery32Slots[2]) {
        op.kind = OpKind::kQuery32;
        op.lo = static_cast<int64_t>(rng_.Uniform(kQuery32MaxWeight));
        op.oql = "select Vehicle where Weight > " + std::to_string(op.lo) +
                 " and Manufacturer.Location = 'Detroit'";
        op.expect_count = v.detroit_weight_gt[static_cast<size_t>(op.lo)];
      } else if (r == kOnlyScanSlot) {
        op.kind = OpKind::kOnlyScan;
        op.cls = static_cast<uint8_t>(rng_.Uniform(kVehicleClasses));
        op.color = static_cast<uint8_t>(rng_.Uniform(kColors));
        op.oql = std::string("select ") + kVehicleClassNames[op.cls] +
                 " only where Color = '" + kColorNames[op.color] + "'";
        op.expect_count = v.class_color[op.cls][op.color];
      } else {
        op.kind = OpKind::kRangeLookup;
        op.lo = static_cast<int64_t>(rng_.Uniform(kWeightRange - kRangeWidth));
        op.hi = op.lo + kRangeWidth;
        op.oql = "select Vehicle where Weight >= " + std::to_string(op.lo) +
                 " and Weight < " + std::to_string(op.hi);
        op.expect_count = v.weight_le[static_cast<size_t>(op.hi - 1)] -
                          (op.lo > 0 ? v.weight_le[static_cast<size_t>(op.lo - 1)]
                                     : 0);
      }
      break;
    }
  }
  return op;
}

namespace {

// FNV-1a over everything a run feeds the engine or checks against.
struct Hasher {
  uint64_t h = 0xcbf29ce484222325ull;
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(T));
  }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }
};

uint64_t HashData(const Dataset& d) {
  Hasher h;
  h.Vec(d.parts.x);
  h.Vec(d.parts.y);
  for (const auto& s : d.parts.type) h.Str(s);
  h.Vec(d.parts.conn);
  h.Vec(d.y_lt);
  const VehicleData& v = d.vehicles;
  h.Vec(v.company_detroit);
  for (const auto& s : v.company_location) h.Str(s);
  h.Vec(v.cls);
  h.Vec(v.weight);
  h.Vec(v.maker);
  h.Vec(v.color);
  h.Vec(v.payload);
  for (const auto& s : v.model) h.Str(s);
  h.Vec(v.weight_le);
  h.Vec(v.detroit_weight_gt);
  h.Bytes(&d.payload_bytes, sizeof(d.payload_bytes));
  return h.h;
}

uint64_t HashOps(const Dataset& d, int n_conns, size_t ops_per_conn) {
  Hasher h;
  for (int c = 0; c < n_conns; ++c) {
    OpStream s(d, c, n_conns);
    for (size_t i = 0; i < ops_per_conn; ++i) {
      Op op = s.Next();
      h.Bytes(&op.kind, sizeof(op.kind));
      h.Str(op.oql);
      for (uint64_t f : {op.expect_count, uint64_t{op.key}, uint64_t{op.set_part},
                         static_cast<uint64_t>(op.set_value), op.pick}) {
        h.Bytes(&f, sizeof(f));
      }
    }
  }
  return h.h;
}

}  // namespace

bool SelfTest(uint64_t seed, std::string* why) {
  constexpr int kConns = 4;
  constexpr size_t kOps = 2000;
  for (Workload w : kAllWorkloads) {
    Dataset a = Generate(w, seed);
    Dataset b = Generate(w, seed);
    Dataset other = Generate(w, seed + 1);
    std::string name = WorkloadName(w);
    if (HashData(a) != HashData(b)) {
      *why = name + ": same seed generated different data";
      return false;
    }
    if (HashOps(a, kConns, kOps) != HashOps(b, kConns, kOps)) {
      *why = name + ": same seed generated different ops or oracle answers";
      return false;
    }
    if (HashData(a) == HashData(other)) {
      *why = name + ": seeds " + std::to_string(seed) + " and " +
             std::to_string(seed + 1) + " generated the same data";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
