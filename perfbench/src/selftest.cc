// Self-tests of the benchmark's own instruments. Exit status 0 = all pass.
//
//   1. The timing decorator is transparent: for one seed, a run through the
//      decorated transport returns byte-for-byte the same response stream as
//      a run without it.
//   2. Thread-CPU attribution: a known spin on a named thread is charged to
//      that name, and to the system-under-test class only when the name is a
//      platform thread's.
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "generator.h"
#include "testbed.h"
#include "thread_cpu.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

// One connection, one request in flight: the completion order is the request
// order, so the response stream is a pure function of the seed.
std::vector<std::string> ResponseStream(const WorkloadSpec& base, bool traced) {
  WorkloadSpec spec = base;
  spec.open_window = 1;
  std::vector<std::string> log;
  double setup_s = 0;
  auto tb = Testbed::Start(spec, traced, &setup_s);
  if (!tb.ok()) {
    std::printf("set-up failed: %s\n", tb.status().ToString().c_str());
    return log;
  }
  Generator gen(spec, /*seed=*/42, (*tb)->port(), /*conns=*/1);
  gen.LogResponses(&log);
  const PhaseResult r = gen.RunSaturating(/*window=*/1, /*seconds=*/0.3);
  gen.CloseAll();
  if (r.failed() != 0) {
    std::printf("  %s: %llu failed requests (%s)\n", spec.name,
                static_cast<unsigned long long>(r.failed()), r.first_error.c_str());
    log.clear();
  }
  if (traced && (*tb)->timing()->Snapshot().read_calls == 0) {
    std::printf("  %s: the traced run never went through the decorator\n", spec.name);
    log.clear();
  }
  (*tb)->Stop();
  return log;
}

void TestDecoratorTransparent() {
  for (const char* name : {"mc_cache_rw", "resp_dsl_rw", "http_churn"}) {
    const WorkloadSpec& spec = *FindWorkload(name);
    std::vector<std::string> plain = ResponseStream(spec, false);
    std::vector<std::string> traced = ResponseStream(spec, true);
    // Both runs last the same wall time but need not complete the same
    // number of requests; compare the common prefix, which must be long.
    const size_t n = std::min(plain.size(), traced.size());
    bool same = n >= 100;
    for (size_t i = 0; same && i < n; ++i) {
      same = plain[i] == traced[i];
    }
    Expect(same, std::string("decorator transparent on ") + name + " (" + std::to_string(n) +
                     " responses compared)");
  }
}

// Burns `cpu_ns` of CPU under `name`, then stays alive (idle) until
// released: a finished thread's CPU leaves /proc/self/task with it.
void Spin(const char* name, uint64_t cpu_ns, std::atomic<int>* done,
          const std::atomic<bool>* release) {
  pthread_setname_np(pthread_self(), name);
  const uint64_t start = SelfThreadCpuNs();
  volatile uint64_t sink = 0;
  while (SelfThreadCpuNs() - start < cpu_ns) {
    for (int i = 0; i < 1000; ++i) {
      sink = sink + static_cast<uint64_t>(i);
    }
  }
  done->fetch_add(1);
  while (!release->load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void TestCpuAttribution() {
  constexpr uint64_t kSpinNs = 300'000'000;
  const CpuSample before = SampleThreadCpu();
  std::atomic<int> done{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  threads.emplace_back(Spin, "flick-wrk-7", kSpinNs, &done, &release);
  threads.emplace_back(Spin, "lb-spin-probe", kSpinNs / 2, &done, &release);
  while (done.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const CpuSample after = SampleThreadCpu();
  release.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  const auto by_name = CpuByName(before, after);
  const auto get = [&](const char* n) {
    const auto it = by_name.find(n);
    return it == by_name.end() ? uint64_t{0} : it->second;
  };
  const uint64_t worker = get("flick-wrk-7");
  const uint64_t probe = get("lb-spin-probe");
  Expect(worker >= kSpinNs * 95 / 100 && worker <= kSpinNs * 130 / 100,
         "spin on flick-wrk-7 charged to it (" + std::to_string(worker / 1000000) + " ms)");
  Expect(probe >= kSpinNs / 2 * 95 / 100 && probe <= kSpinNs / 2 * 130 / 100,
         "spin on lb-spin-probe charged to it (" + std::to_string(probe / 1000000) + " ms)");
  const CpuSplit split = SplitCpu(by_name);
  Expect(split.workers_ns == worker && split.poller_ns == 0 && split.harness_ns >= probe,
         "flick-wrk-* counted as system under test, lb-* as harness");
}

}  // namespace
}  // namespace perfbench

int main() {
  flick::SetLogLevel(flick::LogLevel::kWarning);
  perfbench::TestCpuAttribution();
  perfbench::TestDecoratorTransparent();
  std::printf("%s\n", perfbench::failures == 0 ? "ALL PASS" : "FAILURES");
  return perfbench::failures == 0 ? 0 : 1;
}
