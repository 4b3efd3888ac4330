// flickbench: runs one workload against FLICK services over KernelTransport
// on loopback and prints one JSON result line.
//
//   flickbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics over two-second rounds, each on a
// fresh testbed: set-up time, then warm-up, an open-loop Poisson phase at the
// workload's fixed rate, and a saturating phase; the figures are taken over
// all rounds (see Pass). --trace 1 runs one untraced round for reference and one
// round with the timing decorator under the platform, a direct-to-backend
// baseline and the offline replays, and reports the per-layer metrics. Exit
// status:
// 0 = correct run, 1 = a response check or drain assertion failed, 2 = usage
// or set-up error, 3 = run invalid (the generator fell behind its schedule).
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.h"
#include "generator.h"
#include "lang/compile.h"
#include "proto/memcached.h"
#include "replay.h"
#include "services/dsl_service.h"
#include "testbed.h"
#include "thread_cpu.h"
#include "timing_transport.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace runtime = flick::runtime;
namespace services = flick::services;

constexpr double kRoundSeconds = 2.0;
constexpr size_t kMaxConns = 4;
// A round whose generator picked arrivals off the schedule later than this
// (p99) measured the generator, not the program: it is left out of the
// figures, and a run that loses more than half of its rounds this way is
// reported invalid.
constexpr double kMaxLatenessP99Us = 250.0;
constexpr size_t kCaptureBytes = 1 << 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Counters of every layer the benchmark reads, at one instant.
struct Snap {
  uint64_t t_ns = 0;
  CpuSample cpu;
  runtime::SchedulerStats sched;
  uint64_t poller_busy_ns = 0;
  uint64_t sweeps = 0;
  uint64_t sweeps_idle = 0;
  runtime::TimerStats timer;
  flick::BufferPoolStats buffers;
  uint64_t msg_misses = 0;
  NetSnapshot net;
  services::BackendPoolStats pool;
  services::RegistryStats reg;
};

Snap TakeSnap(Testbed& tb) {
  Snap s;
  s.t_ns = flick::MonotonicNanos();
  s.cpu = SampleThreadCpu();
  runtime::Platform& p = tb.platform();
  s.sched = p.scheduler().stats();
  s.poller_busy_ns = p.poller().busy_ns();
  s.sweeps = p.poller().sweeps();
  s.sweeps_idle = p.poller().sweeps_idle();
  s.timer = p.poller().wheel().stats();
  s.buffers = p.buffers().stats();
  s.msg_misses = p.msg_pool_misses();
  if (tb.timing() != nullptr) {
    s.net = tb.timing()->Snapshot();
  }
  s.pool = tb.pool().stats();
  s.reg = tb.registry().stats();
  return s;
}

double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  return static_cast<double>(v[idx]);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Mean of the middle half of `v` (the interquartile mean).
double InterquartileMean(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// One testbed's lifetime: set-up, then warm-up, open loop and saturating
// phases. Open-loop figures cover the whole phase: p50/p99 over every
// request's latency from its scheduled arrival, CPU as the phase's SUT CPU
// over its completed requests.
struct RoundResult {
  double setup_s = 0;
  PhaseResult warm;
  PhaseResult open;
  PhaseResult sat;
  PhaseResult direct;  // traced pass only
  Snap s0, s1, s2, s3, s4;
  uint64_t retire_backlog = 0;
  std::vector<uint64_t> accept_ns;
  std::vector<uint64_t> connect_ns;
  std::string capture;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;  // first check violation, if any
  double lateness_p99_us = 0;

  double p50_ms() const { return Percentile(open.latency_ns, 0.50) * 1e-6; }
  double p99_ms() const { return Percentile(open.latency_ns, 0.99) * 1e-6; }
  // Correct responses per second while every connection kept its window full.
  double peak_rps() const { return Ratio(static_cast<double>(sat.completed_in_phase), sat.seconds); }
  double sut_cpu_us_per_req() const {
    const CpuSplit cpu = SplitCpu(CpuByName(s1.cpu, s2.cpu));
    return Ratio(static_cast<double>(cpu.sut_ns()) * 1e-3, static_cast<double>(open.completed));
  }
};

void Fold(RoundResult* round, const PhaseResult& ph) {
  round->attempted += ph.attempted;
  round->failed += ph.failed();
  if (round->error.empty() && !ph.first_error.empty()) {
    round->error = ph.first_error;
  }
}

// One round on a fresh testbed: set-up, warm-up, open loop, saturating,
// drain.
bool RunRound(const WorkloadSpec& spec, uint64_t seed, double seconds, bool traced,
              size_t conns, RoundResult* out) {
  // CPU layout: the load generator gets the last CPU to itself, so its
  // send schedule never waits behind the system under test; everything the
  // testbed starts (backends, poller; workers pin themselves from CPU 0 up)
  // inherits the other CPUs from this thread.
  const int ncpu = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (ncpu >= 3) {
    PinSelf(0, ncpu - 2);
  }
  auto started = Testbed::Start(spec, traced, &out->setup_s);
  if (!started.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", started.status().ToString().c_str());
    return false;
  }
  std::unique_ptr<Testbed> tb = std::move(started).value();
  if (ncpu >= 3) {
    PinSelf(ncpu - 1, ncpu - 1);
  }
  const double warm_s = 0.10 * seconds;
  const double open_s = 0.45 * seconds;
  const double sat_s = 0.45 * seconds;
  Generator gen(spec, seed, tb->port(), conns);
  if (traced) {
    gen.CaptureRequests(&out->capture, kCaptureBytes);
  }
  out->s0 = TakeSnap(*tb);
  out->warm = gen.RunOpenLoop(spec.rate, warm_s);
  out->s1 = TakeSnap(*tb);
  out->open = gen.RunOpenLoop(spec.rate, open_s);
  out->s2 = TakeSnap(*tb);
  out->sat = gen.RunSaturating(spec.sat_window, sat_s);
  out->s3 = TakeSnap(*tb);
  if (traced) {
    // Baseline for services.proxy_added_us_p50: the same generator shape and
    // rate aimed straight at one backend, reads only (see Generator).
    Generator direct(spec, seed ^ 0x5eed, tb->backend_port(0), conns);
    direct.set_read_only(true);
    out->direct = direct.RunOpenLoop(spec.rate, open_s);
  }
  gen.CloseAll();
  out->retire_backlog = tb->DrainGraphs();
  out->s4 = TakeSnap(*tb);
  if (tb->timing() != nullptr) {
    out->accept_ns = tb->timing()->accept_ns();
    out->connect_ns = tb->timing()->connect_ns();
  }
  tb->Stop();

  for (const PhaseResult* ph : {&out->warm, &out->open, &out->sat, &out->direct}) {
    Fold(out, *ph);
  }
  out->lateness_p99_us = Percentile(out->open.lateness_ns, 0.99) * 1e-3;
  return true;
}

// Drain-time assertions that hold for every correct run.
std::string DrainViolation(const WorkloadSpec& spec, const RoundResult& p) {
  if (p.retire_backlog != 0) {
    return "services.graph.retire_backlog = " + std::to_string(p.retire_backlog) + " after drain";
  }
  const uint64_t dropped = p.s4.pool.responses_dropped - p.s0.pool.responses_dropped;
  if (dropped != 0) {
    return "services.pool.responses_dropped = " + std::to_string(dropped);
  }
  if (spec.proto == Proto::kResp) {
    const uint64_t lowered = p.s4.reg.dsl_lowered_msgs;
    const uint64_t fallbacks = p.s4.reg.dsl_interp_fallbacks;
    if (lowered == 0 || fallbacks != 0) {
      return "lang.lowered_frac != 1.0 (" + std::to_string(fallbacks) + " interp fallbacks)";
    }
  }
  return "";
}

// Many short rounds, each on a fresh testbed with its own seed. On a small
// virtual machine the program runs in spells, seconds long, whose latency,
// throughput and CPU per request differ by up to 2x (fast spells when the
// host wakes idle virtual CPUs quickly, single-round stalls when it does
// not). One long phase reports whichever spell it fell in, and a median or
// quartile over rounds jumps between spells; figures pooled over all rounds
// move only with the share of time each spell took.
struct Pass {
  std::vector<RoundResult> rounds;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;  // first check or drain violation, if any
  int late_rounds = 0;  // rounds left out: the generator fell behind

  // Pooled over rounds: the median over every open-loop request of the run,
  // throughput and CPU as run totals over run totals.
  double p50_ms() const {
    std::vector<uint64_t> all;
    for (const RoundResult& r : rounds) {
      all.insert(all.end(), r.open.latency_ns.begin(), r.open.latency_ns.end());
    }
    return Percentile(std::move(all), 0.50) * 1e-6;
  }
  // The tail is taken per round and averaged over the middle half of rounds.
  // A virtual-machine stall of a few milliseconds delays a few hundred
  // requests, enough to move a pooled p99 by a third; it moves only its own
  // round's p99, and that round falls outside the middle half.
  double p99_ms() const {
    std::vector<double> v;
    for (const RoundResult& r : rounds) {
      v.push_back(r.p99_ms());
    }
    return InterquartileMean(std::move(v));
  }
  double peak_rps() const {
    double done = 0;
    double seconds = 0;
    for (const RoundResult& r : rounds) {
      done += static_cast<double>(r.sat.completed_in_phase);
      seconds += r.sat.seconds;
    }
    return Ratio(done, seconds);
  }
  double sut_cpu_us_per_req() const {
    double cpu_us = 0;
    double done = 0;
    for (const RoundResult& r : rounds) {
      cpu_us += static_cast<double>(SplitCpu(CpuByName(r.s1.cpu, r.s2.cpu)).sut_ns()) * 1e-3;
      done += static_cast<double>(r.open.completed);
    }
    return Ratio(cpu_us, done);
  }
  double setup_s() const {
    std::vector<double> v;
    for (const RoundResult& r : rounds) {
      v.push_back(r.setup_s);
    }
    return Median(v);
  }
};

bool RunPass(const WorkloadSpec& spec, uint64_t seed, double seconds, int rounds,
             bool traced, size_t conns, Pass* out) {
  for (int i = 0; i < rounds; ++i) {
    RoundResult round;
    if (!RunRound(spec, seed * 1009 + static_cast<uint64_t>(i), seconds / rounds, traced,
                  conns, &round)) {
      return false;
    }
    out->attempted += round.attempted;
    out->failed += round.failed;
    if (out->error.empty()) {
      out->error = round.error.empty() ? DrainViolation(spec, round) : round.error;
    }
    // Every round's responses are checked; only on-schedule rounds count.
    if (round.lateness_p99_us > kMaxLatenessP99Us) {
      ++out->late_rounds;
    } else {
      out->rounds.push_back(std::move(round));
    }
  }
  return true;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void AddEndToEnd(const Pass& p, std::vector<Metric>* m) {
  m->push_back({"setup_s", p.setup_s(), "s"});
  m->push_back({"p50_ms", p.p50_ms(), "ms"});
  m->push_back({"p99_ms", p.p99_ms(), "ms"});
  m->push_back({"peak_rps", p.peak_rps(), "req/s"});
  m->push_back({"sut_cpu_us_per_req", p.sut_cpu_us_per_req(), "us"});
}

void AddPerLayer(const WorkloadSpec& spec, const Args& args, const Pass& untraced,
                 const RoundResult& t, std::vector<Metric>* m) {
  const double req = std::max<double>(1, static_cast<double>(t.open.completed));
  const double open_s = std::max(1e-9, static_cast<double>(t.s2.t_ns - t.s1.t_ns) * 1e-9);
  const NetSnapshot net = t.s2.net - t.s1.net;
  const NetSnapshot net_all = t.s4.net - t.s0.net;
  const auto us = [](double ns) { return ns * 1e-3; };
  const auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };

  // net
  m->push_back({"net.read_calls_per_req", net.read_calls / req, "count"});
  m->push_back({"net.read_empty_frac", Ratio(net.read_empty, net.read_calls), "ratio"});
  m->push_back({"net.write_calls_per_req", net.write_calls / req, "count"});
  m->push_back({"net.readready_calls_per_req", net.readready_calls / req, "count"});
  m->push_back({"net.io_us_per_req", us(static_cast<double>(net.io_ns)) / req, "us"});
  m->push_back({"net.accept_us_p50", us(Percentile(t.accept_ns, 0.5)), "us"});
  m->push_back({"net.connect_us_p50", us(Percentile(t.connect_ns, 0.5)), "us"});
  uint64_t gen_connect_failures = 0;
  for (const PhaseResult* ph : {&t.warm, &t.open, &t.sat, &t.direct}) {
    gen_connect_failures += ph->connect_failures;
  }
  m->push_back({"net.connect_failures",
                static_cast<double>(net_all.connect_failures + gen_connect_failures), "count"});

  // buffer / msg pool
  m->push_back({"buffer.acquires_per_req",
                d(t.s2.buffers.acquire_count, t.s1.buffers.acquire_count) / req, "count"});
  m->push_back({"buffer.exhausted",
                d(t.s4.buffers.exhausted_count, t.s0.buffers.exhausted_count), "count"});
  m->push_back({"runtime.msg_pool_misses_per_req", d(t.s2.msg_misses, t.s1.msg_misses) / req,
                "count"});

  // grammar / proto replays of this workload's own request bytes
  CodecCost grammar;
  CodecCost http;
  if (spec.proto == Proto::kHttp) {
    http = ReplayHttp(t.capture);
    grammar = http;
  } else {
    http = ReplayHttp(SyntheticWire(spec, Proto::kHttp, args.seed, 8192));
    if (spec.proto == Proto::kMemcached) {
      grammar = ReplayUnit(flick::proto::MemcachedUnit(), t.capture);
    } else {
      auto program = flick::lang::CompileSource(services::kRespRouterSource);
      if (program.ok() && (*program)->UnitFor("req") != nullptr) {
        grammar = ReplayUnit(*(*program)->UnitFor("req"), t.capture);
      }
    }
  }
  m->push_back({"grammar.parse_ns_per_msg", grammar.parse_ns_per_msg, "ns"});
  m->push_back({"grammar.serialize_ns_per_msg", grammar.serialize_ns_per_msg, "ns"});
  m->push_back({"proto.http_parse_ns_per_req", http.parse_ns_per_msg, "ns"});

  // runtime: scheduler, poller, timer wheel, state store
  const CpuSplit cpu = SplitCpu(CpuByName(t.s1.cpu, t.s2.cpu));
  m->push_back({"runtime.sched.tasks_run_per_req",
                d(t.s2.sched.tasks_run, t.s1.sched.tasks_run) / req, "count"});
  m->push_back({"runtime.sched.notifications_per_req",
                d(t.s2.sched.notifications, t.s1.sched.notifications) / req, "count"});
  m->push_back({"runtime.sched.steals_per_req", d(t.s2.sched.steals, t.s1.sched.steals) / req,
                "count"});
  m->push_back({"runtime.worker_cpu_us_per_req", us(static_cast<double>(cpu.workers_ns)) / req,
                "us"});
  m->push_back({"runtime.poller.cpu_us_per_req", us(static_cast<double>(cpu.poller_ns)) / req,
                "us"});
  m->push_back({"runtime.poller.busy_frac",
                d(t.s2.poller_busy_ns, t.s1.poller_busy_ns) * 1e-9 / open_s, "ratio"});
  m->push_back({"runtime.poller.idle_sweep_frac",
                Ratio(d(t.s2.sweeps_idle, t.s1.sweeps_idle), d(t.s2.sweeps, t.s1.sweeps)),
                "ratio"});
  m->push_back({"runtime.timer.armed_per_conn",
                Ratio(d(t.s4.timer.armed, t.s0.timer.armed),
                      d(t.s4.reg.graphs_adopted, t.s0.reg.graphs_adopted)),
                "count"});
  m->push_back({"runtime.timer.fired_per_s", d(t.s2.timer.fired, t.s1.timer.fired) / open_s,
                "1/s"});
  const WorkloadSpec* cache_rw = FindWorkload("mc_cache_rw");
  const StateCost state = ReplayStateStore(*cache_rw, args.seed, 200000);
  m->push_back({"runtime.state.get_ns", state.get_ns, "ns"});
  m->push_back({"runtime.state.put_if_fresh_ns", state.put_if_fresh_ns, "ns"});
  m->push_back({"runtime.state.erase_ns", state.erase_ns, "ns"});

  // services: pool, graphs, cache, proxy
  m->push_back({"services.pool.reqs_per_writev",
                Ratio(d(t.s2.pool.requests_forwarded, t.s1.pool.requests_forwarded),
                      d(t.s2.pool.writev_calls, t.s1.pool.writev_calls)),
                "count"});
  m->push_back({"services.pool.resps_per_readv",
                Ratio(d(t.s2.pool.responses_routed, t.s1.pool.responses_routed),
                      d(t.s2.pool.readv_calls, t.s1.pool.readv_calls)),
                "count"});
  m->push_back({"services.pool.max_pipeline_depth",
                static_cast<double>(t.s4.pool.max_pipeline_depth), "count"});
  m->push_back({"services.pool.responses_dropped",
                d(t.s4.pool.responses_dropped, t.s0.pool.responses_dropped), "count"});
  m->push_back({"services.pool.requests_failed",
                d(t.s4.pool.requests_failed, t.s0.pool.requests_failed), "count"});
  m->push_back({"services.pool.leases_per_s",
                d(t.s2.pool.leases_acquired, t.s1.pool.leases_acquired) / open_s, "1/s"});
  m->push_back({"services.graph.launches_per_s",
                d(t.s2.reg.graphs_adopted, t.s1.reg.graphs_adopted) / open_s, "1/s"});
  m->push_back({"services.graph.retire_backlog", static_cast<double>(t.retire_backlog),
                "count"});
  m->push_back({"services.graph.launch_failures",
                d(t.s4.reg.launch_failures, t.s0.reg.launch_failures), "count"});
  std::vector<uint64_t> first;
  std::vector<uint64_t> later;
  for (const PhaseResult* ph : {&t.warm, &t.open, &t.sat}) {
    first.insert(first.end(), ph->first_on_conn_ns.begin(), ph->first_on_conn_ns.end());
    later.insert(later.end(), ph->later_ns.begin(), ph->later_ns.end());
  }
  m->push_back({"services.graph.first_req_extra_us",
                us(Percentile(first, 0.5) - Percentile(later, 0.5)), "us"});
  const double hits = d(t.s2.reg.cache_hits, t.s1.reg.cache_hits);
  const double misses = d(t.s2.reg.cache_misses, t.s1.reg.cache_misses);
  m->push_back({"services.cache.hit_ratio", Ratio(hits, hits + misses), "ratio"});
  m->push_back({"services.cache.invalidations_per_req",
                d(t.s2.reg.cache_invalidations, t.s1.reg.cache_invalidations) / req, "count"});
  m->push_back({"services.cache.stale_drops_per_write",
                Ratio(d(t.s2.reg.cache_stale_populates_dropped,
                        t.s1.reg.cache_stale_populates_dropped),
                      static_cast<double>(t.open.sets)),
                "ratio"});
  m->push_back({"services.proxy_added_us_p50",
                us(Percentile(t.open.latency_ns, 0.5) - Percentile(t.direct.latency_ns, 0.5)),
                "us"});

  // lang
  const double lowered = d(t.s4.reg.dsl_lowered_msgs, t.s0.reg.dsl_lowered_msgs);
  const double fallbacks = d(t.s4.reg.dsl_interp_fallbacks, t.s0.reg.dsl_interp_fallbacks);
  m->push_back({"lang.lowered_frac", Ratio(lowered, lowered + fallbacks), "ratio"});
  m->push_back({"lang.compile_ms", CompileMs(5), "ms"});

  // load generator health and tracing cost
  m->push_back({"load.send_lateness_us_p99", t.lateness_p99_us, "us"});
  m->push_back({"load.cpu_us_per_req", us(static_cast<double>(t.open.generator_cpu_ns)) / req,
                "us"});
  m->push_back({"load.open_loop_samples", static_cast<double>(t.open.latency_ns.size()),
                "count"});
  m->push_back({"trace.overhead_frac", 1.0 - Ratio(t.peak_rps(), untraced.peak_rps()), "ratio"});
  m->push_back({"error_frac",
                Ratio(static_cast<double>(untraced.failed + t.failed),
                      static_cast<double>(untraced.attempted + t.attempted)),
                "ratio"});
}

double LoadAvg1m() {
  std::ifstream f("/proc/loadavg");
  double v = 0;
  f >> v;
  return v;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::string(v) == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// One line per round on stderr: the open-loop sample count that backs the
// percentiles, and the generator's own lateness.
void Summarize(const char* label, const Pass& pass) {
  for (size_t i = 0; i < pass.rounds.size(); ++i) {
    const RoundResult& p = pass.rounds[i];
    std::fprintf(stderr,
                 "# %s round %zu: setup=%.3f ms | open-loop samples=%zu p50=%.4f ms "
                 "p99=%.4f ms sut_cpu=%.2f us/req lateness_p99=%.1f us | saturating "
                 "peak=%.0f req/s | attempted=%" PRIu64 " failed=%" PRIu64 "\n",
                 label, i, p.setup_s * 1e3, p.open.latency_ns.size(), p.p50_ms(),
                 p.p99_ms(), p.sut_cpu_us_per_req(), p.lateness_p99_us, p.peak_rps(),
                 p.attempted, p.failed);
  }
  if (pass.late_rounds > 0) {
    std::fprintf(stderr, "# %s: %d round(s) left out, generator send lateness p99 > %.0f us\n",
                 label, pass.late_rounds, kMaxLatenessP99Us);
  }
  if (!pass.error.empty()) {
    std::fprintf(stderr, "# %s: first error: %s\n", label, pass.error.c_str());
  }
}

int Main(int argc, char** argv) {
  pthread_setname_np(pthread_self(), "bench-gen");
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: flickbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  flick::SetLogLevel(flick::LogLevel::kWarning);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const size_t conns = std::min<size_t>(kMaxConns, static_cast<size_t>(std::max(1L, nproc)));
  std::printf("# workload=%s seed=%" PRIu64 " seconds=%g trace=%d transport=kernel-loopback "
              "nproc=%ld loadavg_1m=%.2f conns=%zu rate=%.0f\n",
              spec->name, args.seed, args.seconds, args.trace ? 1 : 0, nproc, LoadAvg1m(),
              conns, spec->rate);
  std::fflush(stdout);

  // The traced run splits its time between one untraced reference round and
  // one traced round of the same length.
  Pass untraced;
  const bool made = args.trace
      ? RunPass(*spec, args.seed, args.seconds / 2, 1, /*traced=*/false, conns, &untraced)
      : RunPass(*spec, args.seed, args.seconds,
                std::max(1, static_cast<int>(args.seconds / kRoundSeconds)),
                /*traced=*/false, conns, &untraced);
  if (!made) {
    return 2;
  }
  Summarize("untraced", untraced);
  std::string violation = untraced.error;
  int late_rounds = untraced.late_rounds;
  int total_rounds = untraced.late_rounds + static_cast<int>(untraced.rounds.size());

  std::vector<Metric> metrics;
  uint64_t attempted = untraced.attempted;
  uint64_t failed = untraced.failed;
  if (!args.trace) {
    AddEndToEnd(untraced, &metrics);
  } else {
    Pass traced;
    if (!RunPass(*spec, args.seed, args.seconds / 2, 1, /*traced=*/true, conns, &traced)) {
      return 2;
    }
    Summarize("traced", traced);
    if (violation.empty()) {
      violation = traced.error;
    }
    late_rounds += traced.late_rounds;
    total_rounds += traced.late_rounds + static_cast<int>(traced.rounds.size());
    if (traced.rounds.empty() || untraced.rounds.empty()) {
      std::fprintf(stderr, "run invalid: the generator fell behind its schedule\n");
      return 3;
    }
    attempted += traced.attempted;
    failed += traced.failed;
    AddPerLayer(*spec, args, untraced, traced.rounds[0], &metrics);
    metrics.push_back({"host.nproc", static_cast<double>(nproc), "count"});
    metrics.push_back({"host.loadavg_1m", LoadAvg1m(), "count"});
  }
  std::printf("# host after run: loadavg_1m=%.2f\n", LoadAvg1m());

  if (late_rounds * 2 > total_rounds) {
    std::fprintf(stderr,
                 "run invalid: in %d of %d rounds the generator's send lateness p99 was above "
                 "%.0f us; the numbers would measure the generator, not the program\n",
                 late_rounds, total_rounds, kMaxLatenessP99Us);
    return 3;
  }
  const bool correct = violation.empty() && failed == 0;
  if (!correct) {
    std::fprintf(stderr, "CHECK FAILED: %s\n",
                 violation.empty() ? "requests failed" : violation.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
