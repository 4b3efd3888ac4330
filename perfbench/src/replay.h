// Offline replays for the traced run: one layer's public functions, fed the
// workload's own inputs, timed in isolation.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "workload.h"

namespace flick::grammar {
class Unit;
}

namespace perfbench {

struct CodecCost {
  double parse_ns_per_msg = 0;
  double serialize_ns_per_msg = 0;
};

// Feeds captured request bytes through grammar::UnitParser::Feed, then
// re-serializes every parsed message with grammar::UnitSerializer.
CodecCost ReplayUnit(const flick::grammar::Unit& unit, const std::string& wire);

// The same for HTTP requests through proto::HttpParser / SerializeRequest.
CodecCost ReplayHttp(const std::string& wire);

// `count` requests of `spec`'s mix as the generator would write them.
std::string SyntheticWire(const WorkloadSpec& spec, Proto proto, uint64_t seed, size_t count);

struct StateCost {
  double get_ns = 0;
  double put_if_fresh_ns = 0;
  double erase_ns = 0;
};

// Replays mc_cache_rw's look-aside op stream (read: Get, and on a miss
// InvalidationEpoch + PutIfFresh; write: Erase) against a StateStore of the
// cache's size, timing each call.
StateCost ReplayStateStore(const WorkloadSpec& cache_spec, uint64_t seed, size_t ops);

// Median wall time of compiling kRespRouterSource and lowering its proc.
double CompileMs(int reps);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
