#include "dsos/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <queue>

#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace dlc::dsos {

namespace {

/// Registry mirrors for query fan-out timing (cached once).
struct QueryObs {
  obs::Counter& count;
  obs::LogHistogram& fanout_ns;
};

QueryObs& query_obs() {
  static QueryObs o{
      obs::Registry::global().counter("dlc.query.count"),
      obs::Registry::global().histogram("dlc.query.fanout_ns"),
  };
  return o;
}

}  // namespace

DsosCluster::DsosCluster(ClusterConfig config) : config_(std::move(config)) {
  const std::size_t n = std::max<std::size_t>(1, config_.shard_count);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Dsosd>("dsosd" + std::to_string(i)));
  }
}

void DsosCluster::register_schema(const SchemaPtr& schema) {
  for (auto& shard : shards_) shard->container().register_schema(schema);
}

std::size_t DsosCluster::shard_of(const Object& obj) {
  const auto attr_id = obj.schema->find_attr(config_.shard_attr);
  if (!attr_id) return round_robin_++ % shards_.size();
  const Value& v = obj.values[*attr_id];
  std::uint64_t h = 0;
  std::visit(
      [&h](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::string>) {
          h = fnv1a64(x);
        } else {
          std::uint64_t bits;
          if constexpr (std::is_same_v<T, double>) {
            std::memcpy(&bits, &x, sizeof(bits));
          } else {
            bits = static_cast<std::uint64_t>(x);
          }
          // Final mix so adjacent ranks spread across shards.
          std::uint64_t s = bits;
          h = splitmix64(s);
        }
      },
      v);
  return h % shards_.size();
}

void DsosCluster::insert(Object obj) {
  const std::size_t target = shard_of(obj);
  shards_[target]->container().insert(std::move(obj));
}

std::size_t DsosCluster::route(const Object& obj) { return shard_of(obj); }

void DsosCluster::insert_at(std::size_t shard, Object obj) {
  shards_[shard]->container().insert(std::move(obj));
}

std::size_t DsosCluster::total_objects() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->container().size();
  return total;
}

std::vector<const Object*> DsosCluster::query(std::string_view schema_name,
                                              std::string_view index_name,
                                              const Filter& filter) const {
  const auto query_t0 = std::chrono::steady_clock::now();
  // Fan out: every shard scans its own prefix range of the index.
  std::vector<std::vector<QueryHit>> per_shard(shards_.size());
  if (config_.parallel_query && shards_.size() > 1) {
    std::vector<std::future<std::vector<QueryHit>>> futures;
    futures.reserve(shards_.size());
    for (const auto& shard : shards_) {
      // Capture the shard pointer BY VALUE: a [&] capture would bind the
      // loop variable by reference, and every async task would race on
      // (and likely read past) the mutating iteration state.
      Dsosd* s = shard.get();
      futures.push_back(
          std::async(std::launch::async, [s, schema_name, index_name,
                                          &filter]() {
            return s->container().query(schema_name, index_name, filter);
          }));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      per_shard[i] = futures[i].get();
    }
  } else {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      per_shard[i] =
          shards_[i]->container().query(schema_name, index_name, filter);
    }
  }

  // K-way merge by encoded key (each shard's hits are already ordered).
  struct Cursor {
    std::size_t shard;
    std::size_t pos;
  };
  auto cmp = [&per_shard](const Cursor& a, const Cursor& b) {
    const auto& ka = per_shard[a.shard][a.pos].key;
    const auto& kb = per_shard[b.shard][b.pos].key;
    if (ka != kb) return ka > kb;  // min-heap on key
    return a.shard > b.shard;      // stable tie-break
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(cmp)> heap(cmp);
  std::size_t total = 0;
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    total += per_shard[s].size();
    if (!per_shard[s].empty()) heap.push(Cursor{s, 0});
  }
  std::vector<const Object*> merged;
  merged.reserve(total);
  while (!heap.empty()) {
    Cursor cur = heap.top();
    heap.pop();
    merged.push_back(per_shard[cur.shard][cur.pos].object);
    if (++cur.pos < per_shard[cur.shard].size()) heap.push(cur);
  }
  if (obs::enabled()) {
    query_obs().count.add();
    query_obs().fanout_ns.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - query_t0)
            .count()));
  }
  return merged;
}

}  // namespace dlc::dsos
