// The benchmark's workloads and the wire codec its load generator speaks.
//
// Every value a backend holds is 32 bytes and names the key and a version
// ("k<key>v<version>" padded with '.'), so a response can be checked for the
// key it answers and for how fresh it is.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Proto { kMemcached, kResp, kHttp };

struct WorkloadSpec {
  const char* name;
  Proto proto;
  bool cache;            // memcached look-aside cache mode
  double set_frac;       // share of writes in the request mix
  double zipf_s;         // key skew; 0 = uniform
  uint32_t keys;         // key space
  uint32_t cache_entries;  // StateStore capacity (PlatformConfig::state_entries_per_dict)
  uint32_t sat_window;   // requests in flight per connection, saturating phase
  uint32_t open_window;  // cap on in-flight requests per connection, open-loop phase
  uint32_t churn_k;      // requests per client connection before it closes; 0 = persistent
  double rate;           // open-loop offered rate, requests/s (see kWorkloads)
};

const WorkloadSpec* FindWorkload(std::string_view name);

inline constexpr size_t kValueBytes = 32;
inline constexpr uint8_t kOpGet = 0;
inline constexpr uint8_t kOpSet = 1;

std::string KeyName(uint32_t key);
std::string ValueFor(uint32_t key, uint64_t version);
// Parses a ValueFor() string; false when it is not one.
bool ParseValue(std::string_view v, uint32_t* key, uint64_t* version);

// The exact body both HTTP backends serve.
const std::string& HttpBody();

// Appends one request to `out`. `opaque` is echoed by memcached only.
void EncodeRequest(Proto proto, uint8_t op, uint32_t key, uint64_t version,
                   uint32_t opaque, std::string* out);

// One framed response off the front of a receive buffer.
struct Response {
  size_t wire_bytes = 0;
  // memcached
  uint8_t opcode = 0;
  uint16_t status = 0;
  uint32_t opaque = 0;
  std::string_view key;
  // memcached value / RESP bulk payload / HTTP body
  std::string_view value;
  int http_status = 0;
};

// Parses one response at `data`; returns 1 when one was framed (views point
// into `data`), 0 when more bytes are needed, -1 on a malformed frame.
int DecodeResponse(Proto proto, std::string_view data, Response* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
