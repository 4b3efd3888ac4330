#include "replay.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "base/time_util.h"
#include "buffer/buffer_chain.h"
#include "grammar/parser.h"
#include "grammar/serializer.h"
#include "lang/compile.h"
#include "lang/lower.h"
#include "proto/http.h"
#include "runtime/state_store.h"
#include "services/dsl_service.h"

namespace perfbench {
namespace {

using flick::MonotonicNanos;

constexpr int kPasses = 5;

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Buffers enough to hold `bytes` in 16 KB pool buffers, with headroom.
size_t BuffersFor(size_t bytes) { return bytes / (16 * 1024) + 64; }

}  // namespace

CodecCost ReplayUnit(const flick::grammar::Unit& unit, const std::string& wire) {
  flick::BufferPool pool(2 * BuffersFor(wire.size()), 16 * 1024);
  std::vector<double> parse_ns;
  std::vector<double> ser_ns;
  CodecCost out;
  for (int pass = 0; pass < kPasses; ++pass) {
    flick::BufferChain in(&pool);
    in.Append(wire);
    flick::grammar::UnitParser parser(&unit);
    std::vector<flick::grammar::Message> msgs;
    msgs.reserve(wire.size() / 16);
    flick::grammar::Message msg;
    uint64_t n = 0;
    const uint64_t t0 = MonotonicNanos();
    while (parser.Feed(in, &msg) == flick::grammar::ParseStatus::kDone) {
      ++n;
    }
    const uint64_t t1 = MonotonicNanos();
    if (n == 0) {
      return out;
    }
    parse_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(n));
    // Untimed second parse keeps every message for the serializer pass.
    in.Append(wire);
    flick::grammar::UnitParser keep(&unit);
    while (keep.Feed(in, &msg) == flick::grammar::ParseStatus::kDone) {
      msgs.push_back(msg);
    }
    flick::grammar::UnitSerializer ser(&unit);
    flick::BufferChain sink(&pool);
    const uint64_t t2 = MonotonicNanos();
    for (size_t i = 0; i < msgs.size(); ++i) {
      (void)ser.Serialize(msgs[i], sink);
      if ((i & 255) == 255) {
        sink.Clear();
      }
    }
    const uint64_t t3 = MonotonicNanos();
    ser_ns.push_back(static_cast<double>(t3 - t2) / static_cast<double>(msgs.size()));
  }
  out.parse_ns_per_msg = Median(parse_ns);
  out.serialize_ns_per_msg = Median(ser_ns);
  return out;
}

CodecCost ReplayHttp(const std::string& wire) {
  flick::BufferPool pool(2 * BuffersFor(wire.size()), 16 * 1024);
  std::vector<double> parse_ns;
  std::vector<double> ser_ns;
  CodecCost out;
  using flick::proto::HttpMessage;
  using flick::proto::HttpParser;
  for (int pass = 0; pass < kPasses; ++pass) {
    flick::BufferChain in(&pool);
    in.Append(wire);
    HttpParser parser(HttpParser::Mode::kRequest);
    HttpMessage msg;
    uint64_t n = 0;
    const uint64_t t0 = MonotonicNanos();
    while (parser.Feed(in, &msg) == flick::grammar::ParseStatus::kDone) {
      ++n;
    }
    const uint64_t t1 = MonotonicNanos();
    if (n == 0) {
      return out;
    }
    parse_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(n));
    in.Append(wire);
    HttpParser keep(HttpParser::Mode::kRequest);
    std::vector<HttpMessage> msgs;
    while (keep.Feed(in, &msg) == flick::grammar::ParseStatus::kDone) {
      msgs.push_back(msg);
    }
    std::string sink;
    sink.reserve(64 * 1024);
    const uint64_t t2 = MonotonicNanos();
    for (size_t i = 0; i < msgs.size(); ++i) {
      flick::proto::SerializeRequest(msgs[i], &sink);
      if ((i & 255) == 255) {
        sink.clear();
      }
    }
    const uint64_t t3 = MonotonicNanos();
    ser_ns.push_back(static_cast<double>(t3 - t2) / static_cast<double>(msgs.size()));
  }
  out.parse_ns_per_msg = Median(parse_ns);
  out.serialize_ns_per_msg = Median(ser_ns);
  return out;
}

std::string SyntheticWire(const WorkloadSpec& spec, Proto proto, uint64_t seed, size_t count) {
  std::mt19937_64 rng(seed);
  std::string wire;
  std::vector<uint64_t> version(spec.keys, 0);
  for (size_t i = 0; i < count; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng() % spec.keys);
    const bool set = std::uniform_real_distribution<double>(0.0, 1.0)(rng) < spec.set_frac;
    EncodeRequest(proto, set ? kOpSet : kOpGet, key, set ? ++version[key] : 0,
                  static_cast<uint32_t>(i + 1), &wire);
  }
  return wire;
}

StateCost ReplayStateStore(const WorkloadSpec& spec, uint64_t seed, size_t ops) {
  std::mt19937_64 rng(seed);
  std::vector<double> cdf(spec.keys);
  double sum = 0;
  for (uint32_t k = 0; k < spec.keys; ++k) {
    sum += spec.zipf_s > 0 ? 1.0 / std::pow(static_cast<double>(k + 1), spec.zipf_s) : 1.0;
    cdf[k] = sum;
  }
  std::vector<std::string> names(spec.keys);
  for (uint32_t k = 0; k < spec.keys; ++k) {
    names[k] = KeyName(k);
  }
  const std::string dict = "memcached-cache";
  flick::runtime::StateStore store(spec.cache_entries);
  uint64_t get_ns = 0;
  uint64_t gets = 0;
  uint64_t put_ns = 0;
  uint64_t puts = 0;
  uint64_t erase_ns = 0;
  uint64_t erases = 0;
  for (size_t i = 0; i < ops; ++i) {
    const double z = std::uniform_real_distribution<double>(0.0, sum)(rng);
    const uint32_t key = static_cast<uint32_t>(
        std::min<size_t>(std::lower_bound(cdf.begin(), cdf.end(), z) - cdf.begin(),
                         spec.keys - 1));
    const bool set = std::uniform_real_distribution<double>(0.0, 1.0)(rng) < spec.set_frac;
    const std::string& name = names[key];
    if (set) {
      const uint64_t t0 = MonotonicNanos();
      store.Erase(dict, name);
      erase_ns += MonotonicNanos() - t0;
      ++erases;
      continue;
    }
    const uint64_t t0 = MonotonicNanos();
    const bool hit = store.Get(dict, name).has_value();
    get_ns += MonotonicNanos() - t0;
    ++gets;
    if (!hit) {
      std::string value = ValueFor(key, i);
      const uint64_t t1 = MonotonicNanos();
      const uint64_t epoch = store.InvalidationEpoch(dict, name);
      (void)store.PutIfFresh(dict, name, std::move(value), epoch);
      put_ns += MonotonicNanos() - t1;
      ++puts;
    }
  }
  StateCost out;
  out.get_ns = gets ? static_cast<double>(get_ns) / static_cast<double>(gets) : 0;
  out.put_if_fresh_ns = puts ? static_cast<double>(put_ns) / static_cast<double>(puts) : 0;
  out.erase_ns = erases ? static_cast<double>(erase_ns) / static_cast<double>(erases) : 0;
  return out;
}

double CompileMs(int reps) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const uint64_t t0 = MonotonicNanos();
    auto program = flick::lang::CompileSource(flick::services::kRespRouterSource);
    if (!program.ok()) {
      return 0;
    }
    const flick::lang::ProcDecl* proc = (*program)->ast.FindProc("resp_router");
    if (proc == nullptr) {
      return 0;
    }
    // The wiring DslService gives a proc with two backends.
    flick::lang::ProcWiring wiring;
    wiring.endpoints["client"].inputs = {0};
    wiring.endpoints["client"].outputs = {0};
    wiring.endpoints["backends"].inputs = {1, 2};
    wiring.endpoints["backends"].outputs = {1, 2};
    const flick::lang::ProcPlan plan = flick::lang::AnalyzeProc(**program, *proc, wiring);
    if (!plan.fully_lowered()) {
      return 0;
    }
    ms.push_back(static_cast<double>(MonotonicNanos() - t0) * 1e-6);
  }
  return Median(ms);
}

}  // namespace perfbench
