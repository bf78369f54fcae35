#include "report.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double>* v, double q) {
  std::sort(v->begin(), v->end());
  double pos = q * static_cast<double>(v->size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v->size() - 1);
  double frac = pos - static_cast<double>(lo);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * frac;
}

int Nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  char resolved[4096];
  std::string abs = realpath(path.c_str(), resolved) ? resolved : path;
  std::ifstream in("/proc/mounts");
  std::string dev, mnt, type, best = "unknown", rest;
  size_t best_len = 0;
  while (in >> dev >> mnt >> type) {
    std::getline(in, rest);
    bool under = abs == mnt || mnt == "/" ||
                 (abs.rfind(mnt, 0) == 0 && abs.size() > mnt.size() &&
                  abs[mnt.size()] == '/');
    if (under && mnt.size() >= best_len) {
      best_len = mnt.size();
      best = type;
    }
  }
  return best;
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

namespace {

/// A /proc/self/status field given in kB, in MiB; 0 when absent.
double StatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::stod(line.substr(n + 1)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM"); }

double CurrentRssMb() { return StatusMb("VmRSS"); }

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ContextJson(const RunContext& c) {
  std::ostringstream o;
  o << "{\"workload\": " << Quote(c.workload) << ", \"seed\": " << c.seed
    << ", \"seconds\": " << Num(c.seconds)
    << ", \"trace\": " << (c.trace ? "true" : "false")
    << ", \"nproc\": " << c.nproc << ", \"cpu_model\": " << Quote(c.cpu_model)
    << ", \"build_type\": " << Quote(c.build_type)
    << ", \"db_filesystem\": " << Quote(c.db_filesystem)
    << ", \"flush_policy\": " << Quote(c.flush_policy)
    << ", \"connections\": " << c.connections
    << ", \"server_workers\": " << c.server_workers
    << ", \"steal_frac\": " << Num(c.steal_frac) << "}";
  return o.str();
}

void PrintResult(const RunContext& ctx, const std::vector<Metric>& metrics,
                 const std::vector<std::string>& result_names, bool correct,
                 uint64_t attempted, uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-28s = %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) {
      std::printf("  (n=%llu)", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }
  std::printf("context: %s\n", ContextJson(ctx).c_str());
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : result_names) {
    for (const Metric& m : metrics) {
      if (m.name != name) continue;
      o << (first ? "" : ", ") << Quote(m.name) << ": {\"value\": "
        << Num(m.value) << ", \"unit\": " << Quote(m.unit) << "}";
      first = false;
      break;
    }
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
