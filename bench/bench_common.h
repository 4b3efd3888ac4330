// Shared harness pieces for the figure-reproduction benches.
//
// Each bench point spins up the system under test on a fresh simulated
// fabric, applies a closed-loop load for a fixed window, and reports
// requests/sec + mean latency through benchmark counters. Series names follow
// the paper: FLICK (kernel stack model), FLICK-mTCP, Apache-like, Nginx-like,
// Moxi-like.
#ifndef FLICK_BENCH_BENCH_COMMON_H_
#define FLICK_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <memory>

#include "load/http_load.h"
#include "load/open_loop.h"
#include "net/sim_transport.h"
#include "runtime/platform.h"
#include "services/backend_pool.h"
#include "services/service_util.h"

namespace flick::bench {

// Load window per measured point. Short enough for a full figure sweep to
// finish in seconds, long enough to amortise warm-up.
inline constexpr uint64_t kLoadWindowNs = 1'000'000'000;

// Sim connection ring size: benches run thousands of concurrent connections,
// so the default 256 KiB/direction rings would cost GBs; 16 KiB suffices for
// the request/response sizes of every figure workload.
inline constexpr size_t kSimRingBytes = 16 * 1024;

inline runtime::PlatformConfig MakePlatformConfig(int workers, size_t io_shards = 1) {
  runtime::PlatformConfig config;
  config.scheduler.num_workers = workers;
  config.scheduler.idle_sleep_ns = 20'000;
  config.scheduler.pin_threads = false;  // workers may exceed physical cores
  config.io_buffer_count = 16384;
  config.io_buffer_size = 4096;
  config.msg_pool_size = 8192;
  config.io_shards = io_shards;
  return config;
}

// Exports a pool's wire-coalescing counters (write batching + readv fills)
// as benchmark counters — the one mapping merge_bench_smoke.py asserts over,
// so every pooled series exports the same set.
inline void ReportPoolCounters(benchmark::State& state,
                               const services::BackendPoolStats& pstats) {
  auto avg = [](uint64_t v) {
    return benchmark::Counter(static_cast<double>(v), benchmark::Counter::kAvgIterations);
  };
  state.counters["pool_writev_calls"] = avg(pstats.writev_calls);
  state.counters["pool_requests"] = avg(pstats.requests_forwarded);
  state.counters["pool_msgs_per_writev"] =
      benchmark::Counter(static_cast<double>(pstats.msgs_per_writev));
  state.counters["pool_flushes_forced"] = avg(pstats.flushes_forced);
  state.counters["pool_readv_calls"] = avg(pstats.readv_calls);
  state.counters["pool_bytes_per_readv"] =
      benchmark::Counter(static_cast<double>(pstats.bytes_per_readv));
  state.counters["pool_fills_short"] = avg(pstats.fills_short);
  state.counters["pool_reads_legacy_equivalent"] = avg(pstats.reads_legacy_equivalent);
  state.counters["pool_responses"] = avg(pstats.responses_routed);
  state.counters["pool_stripes"] =
      benchmark::Counter(static_cast<double>(pstats.stripes));
  // Health plane: both must read 0 on a steady-state point — the benches run
  // against healthy backends with the deadline/breaker plane armed, so any
  // nonzero value means the plane misfired under clean load
  // (merge_bench_smoke.py asserts exactly that).
  state.counters["breaker_opens"] = avg(pstats.breaker_opens);
  state.counters["request_deadline_expiries"] = avg(pstats.request_deadline_expiries);
}

// Exports the share-nothing plane counters of a platform: steals that
// crossed a shard-group boundary (compute plane) and pool-slice acquires that
// spilled to the global pool (memory plane). Both must read 0 on a healthy
// sharded point — benches pin every task and size slices for the load — and
// merge_bench_smoke.py asserts exactly that.
inline void ReportShardCounters(benchmark::State& state, runtime::Platform& platform) {
  state.counters["cross_shard_steals"] = benchmark::Counter(
      static_cast<double>(platform.scheduler().stats().cross_shard_steals),
      benchmark::Counter::kAvgIterations);
  state.counters["pool_slice_spills"] = benchmark::Counter(
      static_cast<double>(platform.pool_slice_spills()),
      benchmark::Counter::kAvgIterations);
}

inline void ReportLoad(benchmark::State& state, const load::LoadResult& result) {
  state.counters["reqs_per_s"] =
      benchmark::Counter(result.RequestsPerSec(), benchmark::Counter::kAvgIterations);
  state.counters["mean_lat_ms"] =
      benchmark::Counter(result.MeanLatencyMs(), benchmark::Counter::kAvgIterations);
  state.counters["p99_lat_ms"] = benchmark::Counter(
      static_cast<double>(result.latency.Quantile(0.99)) / 1e6,
      benchmark::Counter::kAvgIterations);
  state.counters["p999_lat_ms"] = benchmark::Counter(
      static_cast<double>(result.latency.Quantile(0.999)) / 1e6,
      benchmark::Counter::kAvgIterations);
  state.counters["errors"] =
      benchmark::Counter(static_cast<double>(result.errors), benchmark::Counter::kAvgIterations);
}

// Exports an open-loop run: offered vs achieved rate, CO-free tail
// percentiles (measured from scheduled arrival timestamps — see
// load/open_loop.h and docs/BENCHMARKS.md), and the drain/error tallies.
// Used by the figure sweeps; the gated CI smoke point instead exports
// per-mode suffixed counters built from paired windows (see
// bench_tail_latency.cc's ReportWindowSeries).
inline void ReportOpenLoad(benchmark::State& state, const load::OpenLoopResult& result) {
  auto avg = [](double v) {
    return benchmark::Counter(v, benchmark::Counter::kAvgIterations);
  };
  state.counters["offered_rps"] = avg(result.OfferedRps());
  state.counters["achieved_rps"] = avg(result.AchievedRps());
  state.counters["p50_ms"] = avg(result.P50Ms());
  state.counters["p99_ms"] = avg(result.P99Ms());
  state.counters["p999_ms"] = avg(result.P999Ms());
  state.counters["mean_ms"] = avg(result.MeanMs());
  state.counters["errors"] = avg(static_cast<double>(result.errors));
  state.counters["abandoned"] = avg(static_cast<double>(result.abandoned));
  state.counters["backlog_peak"] =
      benchmark::Counter(static_cast<double>(result.backlog_peak));
}

// Exports a service registry's look-aside cache counters (0s when the
// service runs with the cache disabled — exporting them anyway keeps the
// counter schema uniform across modes for the smoke invariants).
inline void ReportCacheCounters(benchmark::State& state,
                                const services::RegistryStats& rstats) {
  auto avg = [](uint64_t v) {
    return benchmark::Counter(static_cast<double>(v), benchmark::Counter::kAvgIterations);
  };
  state.counters["cache_hits"] = avg(rstats.cache_hits);
  state.counters["cache_misses"] = avg(rstats.cache_misses);
  state.counters["cache_invalidations"] = avg(rstats.cache_invalidations);
  state.counters["cache_stale_populates_dropped"] =
      avg(rstats.cache_stale_populates_dropped);
  state.counters["cache_stale_served"] = avg(rstats.cache_stale_served);
  const uint64_t lookups = rstats.cache_hits + rstats.cache_misses;
  state.counters["cache_hit_ratio"] = benchmark::Counter(
      lookups == 0 ? 0.0
                   : static_cast<double>(rstats.cache_hits) /
                         static_cast<double>(lookups));
}

}  // namespace flick::bench

#endif  // FLICK_BENCH_BENCH_COMMON_H_
