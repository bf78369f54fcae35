#ifndef KIMDB_PERFBENCH_REPORT_H_
#define KIMDB_PERFBENCH_REPORT_H_

// Result formatting: exact percentiles over raw samples, the run context
// every result carries, and the metric list the final JSON line prints.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0,1]) of raw samples; sorts `v`.
/// Samples must be non-empty.
double Quantile(std::vector<double>* v, double q);

/// Sample median; sorts `v`. Samples must be non-empty.
inline double Median(std::vector<double>* v) { return Quantile(v, 0.5); }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // 0 = not a sampled statistic
};

/// Where and how the run executed.
struct RunContext {
  int nproc = 0;
  std::string cpu_model;
  std::string build_type;
  uint64_t seed = 0;
  std::string workload;
  std::string db_filesystem;
  std::string flush_policy;
  int connections = 0;
  int server_workers = 0;
  double seconds = 0;
  bool trace = false;
  /// Share of the host's CPU time the hypervisor took from this machine
  /// during the measured phase (/proc/stat steal over all ticks).
  double steal_frac = 0;
};

/// Cumulative CPU ticks of all CPUs from /proc/stat.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

int Nproc();
std::string CpuModel();
/// Filesystem type of the mount holding `path` (longest /proc/mounts
/// prefix), or "unknown".
std::string FilesystemOf(const std::string& path);
/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();
/// Resident set size of this process in MiB (VmRSS).
double CurrentRssMb();
/// Restarts the peak from the current resident set; false when the kernel
/// refused.
bool ResetPeakRss();
/// Size of `path` in bytes, 0 when absent.
uint64_t FileBytes(const std::string& path);

std::string ContextJson(const RunContext& ctx);

/// Prints one `name = value unit` line per metric (with the sample count
/// of sampled statistics), then the context line, then the final result
/// line `{"correct", "attempted", "failed", "metrics"}` carrying the
/// metrics whose names are in `result_names`, in that order.
void PrintResult(const RunContext& ctx, const std::vector<Metric>& metrics,
                 const std::vector<std::string>& result_names, bool correct,
                 uint64_t attempted, uint64_t failed);

}  // namespace perfbench

#endif  // KIMDB_PERFBENCH_REPORT_H_
