#include "thread_cpu.h"

#include <dirent.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

// On-CPU nanoseconds of one task: schedstat's first field when the kernel
// exposes it, else utime+stime from stat (clock-tick resolution).
bool ReadTaskCpu(const std::string& dir, uint64_t* ns) {
  {
    std::ifstream sched(dir + "/schedstat");
    unsigned long long run_ns = 0;
    if (sched >> run_ns) {
      *ns = run_ns;
      return true;
    }
  }
  std::ifstream stat(dir + "/stat");
  std::string line;
  if (!std::getline(stat, line)) {
    return false;
  }
  // Fields after the parenthesised comm, which may itself contain spaces.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) {
    return false;
  }
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) {
      utime = std::strtoull(field.c_str(), nullptr, 10);
    } else if (i == 15) {
      stime = std::strtoull(field.c_str(), nullptr, 10);
    }
  }
  const long hz = sysconf(_SC_CLK_TCK);
  *ns = (utime + stime) * (1'000'000'000ULL / static_cast<unsigned long long>(hz > 0 ? hz : 100));
  return true;
}

}  // namespace

CpuSample SampleThreadCpu() {
  CpuSample out;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) {
    return out;
  }
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') {
      continue;
    }
    const std::string dir = std::string("/proc/self/task/") + e->d_name;
    ThreadSample s;
    std::ifstream comm(dir + "/comm");
    if (!std::getline(comm, s.name) || !ReadTaskCpu(dir, &s.cpu_ns)) {
      continue;  // the thread exited between readdir and open
    }
    out[static_cast<pid_t>(std::atoi(e->d_name))] = std::move(s);
  }
  closedir(d);
  return out;
}

std::map<std::string, uint64_t> CpuByName(const CpuSample& before, const CpuSample& after) {
  std::map<std::string, uint64_t> out;
  for (const auto& [tid, s] : after) {
    uint64_t base = 0;
    if (const auto it = before.find(tid); it != before.end() && it->second.name == s.name) {
      base = it->second.cpu_ns;
    }
    out[s.name] += s.cpu_ns >= base ? s.cpu_ns - base : 0;
  }
  return out;
}

CpuSplit SplitCpu(const std::map<std::string, uint64_t>& by_name) {
  CpuSplit split;
  for (const auto& [name, ns] : by_name) {
    if (name.rfind("flick-wrk-", 0) == 0) {
      split.workers_ns += ns;
    } else if (name == "flick-poller") {
      split.poller_ns += ns;
    } else {
      split.harness_ns += ns;
    }
  }
  return split;
}

void PinSelf(int first_cpu, int last_cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first_cpu; cpu <= last_cpu; ++cpu) {
    CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

uint64_t SelfThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace perfbench
