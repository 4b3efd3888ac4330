// Hadoop data aggregator (§6.1, Figure 3c; Listing 3).
//
// One task graph per reducer: k mapper connections feed input tasks
// (deserialising the kv stream); a binary tree of foldt MergeTasks combines
// values of equal keys pairwise ("Compute tasks combine the data with each
// compute task taking two input streams and producing one output"); the root
// serialises back to the Hadoop wire format towards the reducer.
//
// The combine is a partial aggregation (a Hadoop combiner): counts of
// adjacent equal keys are merged, totals are always preserved.
//
// Each aggregation graph dials its own reducer connection, as in the paper:
// the reducer stream is one-way and long-lived, so there is no request/reply
// pipelining for a BackendPool to share.
#ifndef FLICK_SERVICES_HADOOP_AGG_H_
#define FLICK_SERVICES_HADOOP_AGG_H_

#include <memory>
#include <mutex>
#include <vector>

#include "runtime/platform.h"
#include "services/service_util.h"

namespace flick::services {

class HadoopAggService : public runtime::ServiceProgram {
 public:
  struct Options {
    // The shared wire-policy knobs — see services::WireOptions. Only the
    // graph-builder ones apply: flush_watermark_bytes (the reducer sink),
    // fill_window (the mapper sources) and the lifetime windows
    // idle_timeout_ns / header_deadline_ns, which govern stalled mapper
    // streams. The reducer leg is always a dedicated dial, so mode and the
    // pool knobs (conns_per_backend, max_pipeline_depth, io_shards,
    // request_deadline_ns, breaker_*) are ignored.
    WireOptions wire;
  };

  // Builds the aggregation graph once `expected_mappers` connections arrived;
  // the combined stream is written to `reducer_port`.
  HadoopAggService(int expected_mappers, uint16_t reducer_port)
      : HadoopAggService(expected_mappers, reducer_port, Options{}) {}
  HadoopAggService(int expected_mappers, uint16_t reducer_port, Options options);

  const char* name() const override { return "hadoop-agg"; }
  void OnConnection(std::unique_ptr<Connection> conn, runtime::PlatformEnv& env) override;

  size_t live_graphs() const { return registry_.live_graphs(); }
  const GraphRegistry& registry() const { return registry_; }

 private:
  void BuildGraph(runtime::PlatformEnv& env);

  const int expected_mappers_;
  const uint16_t reducer_port_;
  const Options options_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<Connection>> pending_;
  GraphRegistry registry_;
};

}  // namespace flick::services

#endif  // FLICK_SERVICES_HADOOP_AGG_H_
