#include "workload.h"

#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

// Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
// Rates are fixed here once; they are never derived during a run. The two
// gated workloads, mc_cache_rw and http_churn, are offered a tenth or less of
// the saturating peak_rps the parent commit reached on a 4-CPU host: near
// half the peak, queueing behind virtual-machine stalls made their p99 spread
// by a third or more from run to run. The other two run at about half their
// peak.
const std::vector<WorkloadSpec> kWorkloads = {
    // name          proto              cache  set   zipf  keys   cache  sat open churn rate
    {"mc_get",      Proto::kMemcached, false, 0.0,  0.0,  16384, 65536, 4,  64, 0,  55000},
    {"mc_cache_rw", Proto::kMemcached, true,  0.1,  0.99, 16384, 4096,  4,  64, 0,  16000},
    {"resp_dsl_rw", Proto::kResp,      false, 0.2,  0.0,  16384, 65536, 1,  1,  0,  24000},
    {"http_churn",  Proto::kHttp,      false, 0.0,  0.0,  16384, 65536, 1,  1,  8,  4000},
};

void PutBe(std::string* out, uint64_t v, int bytes) {
  for (int i = bytes - 1; i >= 0; --i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t GetBe(const char* p, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

void AppendBulk(std::string* out, std::string_view s) {
  *out += '$';
  *out += std::to_string(s.size());
  *out += "\r\n";
  out->append(s.data(), s.size());
  *out += "\r\n";
}

// Parses "<digits>\r\n" at data[pos]; 1 ok, 0 need more, -1 malformed.
int ParseDecimalLine(std::string_view data, size_t* pos, size_t* value) {
  size_t p = *pos;
  size_t v = 0;
  size_t digits = 0;
  while (p < data.size() && data[p] >= '0' && data[p] <= '9') {
    v = v * 10 + static_cast<size_t>(data[p] - '0');
    if (++digits > 9) {
      return -1;
    }
    ++p;
  }
  if (p + 1 >= data.size()) {
    return 0;
  }
  if (digits == 0 || data[p] != '\r' || data[p + 1] != '\n') {
    return -1;
  }
  *value = v;
  *pos = p + 2;
  return 1;
}

bool IEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const char x = (a[i] >= 'A' && a[i] <= 'Z') ? static_cast<char>(a[i] + 32) : a[i];
    const char y = (b[i] >= 'A' && b[i] <= 'Z') ? static_cast<char>(b[i] + 32) : b[i];
    if (x != y) {
      return false;
    }
  }
  return true;
}

int DecodeMemcached(std::string_view d, Response* out) {
  if (d.size() < 24) {
    return 0;
  }
  if (static_cast<uint8_t>(d[0]) != 0x81) {
    return -1;
  }
  const size_t key_len = GetBe(d.data() + 2, 2);
  const size_t extras_len = static_cast<uint8_t>(d[4]);
  const size_t body = GetBe(d.data() + 8, 4);
  if (body < key_len + extras_len || body > (1u << 20)) {
    return -1;
  }
  if (d.size() < 24 + body) {
    return 0;
  }
  out->wire_bytes = 24 + body;
  out->opcode = static_cast<uint8_t>(d[1]);
  out->status = static_cast<uint16_t>(GetBe(d.data() + 6, 2));
  out->opaque = static_cast<uint32_t>(GetBe(d.data() + 12, 4));
  out->key = d.substr(24 + extras_len, key_len);
  out->value = d.substr(24 + extras_len + key_len, body - extras_len - key_len);
  return 1;
}

int DecodeResp(std::string_view d, Response* out) {
  if (d.empty()) {
    return 0;
  }
  if (d[0] != '$') {
    return -1;
  }
  size_t pos = 1;
  size_t len = 0;
  if (const int r = ParseDecimalLine(d, &pos, &len); r != 1) {
    return r;
  }
  if (d.size() < pos + len + 2) {
    return 0;
  }
  if (d[pos + len] != '\r' || d[pos + len + 1] != '\n') {
    return -1;
  }
  out->value = d.substr(pos, len);
  out->wire_bytes = pos + len + 2;
  return 1;
}

int DecodeHttp(std::string_view d, Response* out) {
  const size_t head_end = d.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return d.size() > 64 * 1024 ? -1 : 0;
  }
  const std::string_view head = d.substr(0, head_end);
  // Status line: HTTP/1.x NNN reason
  if (head.size() < 12 || head.substr(0, 5) != "HTTP/") {
    return -1;
  }
  const size_t sp = head.find(' ');
  if (sp == std::string_view::npos || sp + 4 > head.size()) {
    return -1;
  }
  int status = 0;
  for (size_t i = sp + 1; i < sp + 4; ++i) {
    if (head[i] < '0' || head[i] > '9') {
      return -1;
    }
    status = status * 10 + (head[i] - '0');
  }
  size_t content_length = 0;
  size_t line = head.find("\r\n");
  while (line != std::string_view::npos && line < head.size()) {
    const size_t start = line + 2;
    size_t end = head.find("\r\n", start);
    if (end == std::string_view::npos) {
      end = head.size();
    }
    const std::string_view h = head.substr(start, end - start);
    const size_t colon = h.find(':');
    if (colon != std::string_view::npos && IEquals(h.substr(0, colon), "content-length")) {
      size_t p = colon + 1;
      while (p < h.size() && h[p] == ' ') {
        ++p;
      }
      content_length = 0;
      for (; p < h.size() && h[p] >= '0' && h[p] <= '9'; ++p) {
        content_length = content_length * 10 + static_cast<size_t>(h[p] - '0');
        if (content_length > (1u << 20)) {
          return -1;
        }
      }
    }
    line = end == head.size() ? std::string_view::npos : end;
  }
  const size_t total = head_end + 4 + content_length;
  if (d.size() < total) {
    return 0;
  }
  out->http_status = status;
  out->value = d.substr(head_end + 4, content_length);
  out->wire_bytes = total;
  return 1;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::string KeyName(uint32_t key) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key:%08u", key);
  return buf;
}

std::string ValueFor(uint32_t key, uint64_t version) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "k%010uv%012llu", key,
                static_cast<unsigned long long>(version));
  std::string v(buf);
  v.resize(kValueBytes, '.');
  return v;
}

bool ParseValue(std::string_view v, uint32_t* key, uint64_t* version) {
  if (v.size() != kValueBytes || v[0] != 'k' || v[11] != 'v') {
    return false;
  }
  uint64_t k = 0;
  for (size_t i = 1; i < 11; ++i) {
    if (v[i] < '0' || v[i] > '9') {
      return false;
    }
    k = k * 10 + static_cast<uint64_t>(v[i] - '0');
  }
  uint64_t ver = 0;
  for (size_t i = 12; i < 24; ++i) {
    if (v[i] < '0' || v[i] > '9') {
      return false;
    }
    ver = ver * 10 + static_cast<uint64_t>(v[i] - '0');
  }
  for (size_t i = 24; i < kValueBytes; ++i) {
    if (v[i] != '.') {
      return false;
    }
  }
  *key = static_cast<uint32_t>(k);
  *version = ver;
  return true;
}

const std::string& HttpBody() {
  static const std::string body(64, 'h');
  return body;
}

void EncodeRequest(Proto proto, uint8_t op, uint32_t key, uint64_t version,
                   uint32_t opaque, std::string* out) {
  const std::string k = KeyName(key);
  switch (proto) {
    case Proto::kMemcached: {
      // Binary header (big-endian): magic, opcode, key_len, extras_len,
      // data_type, vbucket, total_len, opaque, cas. GETK echoes the key.
      const std::string value = op == kOpSet ? ValueFor(key, version) : std::string();
      out->push_back(static_cast<char>(0x80));
      out->push_back(static_cast<char>(op == kOpSet ? 0x01 : 0x0c));
      PutBe(out, k.size(), 2);
      PutBe(out, 0, 1);
      PutBe(out, 0, 1);
      PutBe(out, 0, 2);
      PutBe(out, k.size() + value.size(), 4);
      PutBe(out, opaque, 4);
      PutBe(out, 0, 8);
      *out += k;
      *out += value;
      break;
    }
    case Proto::kResp:
      *out += "*3\r\n";
      AppendBulk(out, op == kOpSet ? "SET" : "GET");
      AppendBulk(out, k);
      AppendBulk(out, op == kOpSet ? ValueFor(key, version) : std::string());
      break;
    case Proto::kHttp:
      *out += "GET /";
      *out += k;
      *out += " HTTP/1.1\r\nHost: flick\r\n\r\n";
      break;
  }
}

int DecodeResponse(Proto proto, std::string_view data, Response* out) {
  switch (proto) {
    case Proto::kMemcached:
      return DecodeMemcached(data, out);
    case Proto::kResp:
      return DecodeResp(data, out);
    case Proto::kHttp:
      return DecodeHttp(data, out);
  }
  return -1;
}

}  // namespace perfbench
