// Per-thread CPU time of this process, read from /proc/self/task and grouped
// by thread name, so system-under-test CPU (the platform's `flick-wrk-*`
// workers and `flick-poller` shards) is reported apart from the harness
// (backends `lb-*-be`, the load generator, the main thread).
#ifndef PERFBENCH_THREAD_CPU_H_
#define PERFBENCH_THREAD_CPU_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

// tid -> (name, cumulative on-CPU nanoseconds).
struct ThreadSample {
  std::string name;
  uint64_t cpu_ns = 0;
};
using CpuSample = std::map<pid_t, ThreadSample>;

CpuSample SampleThreadCpu();

// CPU each thread name spent between two samples. A thread that appears only
// in `after` counts from zero; one that is gone by `after` is dropped.
std::map<std::string, uint64_t> CpuByName(const CpuSample& before, const CpuSample& after);

// Sums of CpuByName over the system-under-test classes.
struct CpuSplit {
  uint64_t workers_ns = 0;  // flick-wrk-*
  uint64_t poller_ns = 0;   // flick-poller
  uint64_t harness_ns = 0;  // everything else
  uint64_t sut_ns() const { return workers_ns + poller_ns; }
};
CpuSplit SplitCpu(const std::map<std::string, uint64_t>& by_name);

// CPU of the calling thread (CLOCK_THREAD_CPUTIME_ID).
uint64_t SelfThreadCpuNs();

// Restricts the calling thread to CPUs [first_cpu, last_cpu]; threads it
// creates afterwards inherit that set. Best effort.
void PinSelf(int first_cpu, int last_cpu);

}  // namespace perfbench

#endif  // PERFBENCH_THREAD_CPU_H_
