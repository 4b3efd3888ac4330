#include "services/hadoop_agg.h"

#include "proto/hadoop.h"
#include "services/graph_builder.h"

namespace flick::services {
namespace {

int OrderByKey(const runtime::Msg& a, const runtime::Msg& b) {
  const auto ka = a.gmsg.GetBytes(proto::HadoopKv::kKey);
  const auto kb = b.gmsg.GetBytes(proto::HadoopKv::kKey);
  const int cmp = ka.compare(kb);
  return cmp < 0 ? -1 : (cmp == 0 ? 0 : 1);
}

void CombineByAdding(runtime::Msg& into, const runtime::Msg& from) {
  const std::string combined =
      proto::CombineCounts(into.gmsg.GetBytes(proto::HadoopKv::kValue),
                           from.gmsg.GetBytes(proto::HadoopKv::kValue));
  into.gmsg.SetBytes(proto::HadoopKv::kValue, combined);
}

}  // namespace

HadoopAggService::HadoopAggService(int expected_mappers, uint16_t reducer_port,
                                   Options options)
    : expected_mappers_(expected_mappers),
      reducer_port_(reducer_port),
      options_(options) {}

void HadoopAggService::OnConnection(std::unique_ptr<Connection> conn,
                                    runtime::PlatformEnv& env) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(std::move(conn));
    if (static_cast<int>(pending_.size()) < expected_mappers_) {
      return;
    }
  }
  BuildGraph(env);
}

void HadoopAggService::BuildGraph(runtime::PlatformEnv& env) {
  std::vector<std::unique_ptr<Connection>> mappers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    mappers.swap(pending_);
  }

  const grammar::Unit* unit = &proto::HadoopKvUnit();
  GraphBuilder b("hadoop-agg", env);
  options_.wire.ApplyTo(b.DefaultCapacity(256));

  // Leaves: one input task per mapper connection. If the reducer leg below
  // fails, Launch() closes every adopted mapper connection.
  std::vector<NodeRef> streams;
  for (size_t m = 0; m < mappers.size(); ++m) {
    auto mapper = b.Adopt(std::move(mappers[m]));
    streams.push_back(b.Source("mapper-in-" + std::to_string(m), mapper,
                               std::make_unique<runtime::GrammarDeserializer>(unit)));
  }

  // Binary merge tree ("combining elements in a pair-wise manner until only
  // the result remains", §4.3), rooted at the reducer leg.
  auto root = b.MergeTree("merge", std::move(streams), OrderByKey, CombineByAdding);
  auto reducer = b.Connect(reducer_port_);
  b.Sink("reducer-out", reducer, std::make_unique<runtime::GrammarSerializer>(unit))
      .From(root);

  if (const Status launched = b.Launch(registry_); !launched.ok()) {
    // Launch already closed every leg (mapper conns included); all that is
    // left is to account for the failure.
    registry_.CountLaunchFailure();
  }
}

}  // namespace flick::services
