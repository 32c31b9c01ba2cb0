// DSOS cluster: multiple dsosd storage daemons, hash-sharded ingest, and
// parallel queries whose per-shard (index-ordered) results are k-way
// merged — "The DSOS Client API can perform parallel queries to all dsosd
// in a DSOS cluster.  The results ... are then returned in parallel and
// sorted based on the index selected by the user."
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dsos/container.hpp"

namespace dlc::dsos {

/// One storage daemon: a named container.
class Dsosd {
 public:
  explicit Dsosd(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  Container& container() { return container_; }
  const Container& container() const { return container_; }

 private:
  std::string name_;
  Container container_;
};

struct ClusterConfig {
  std::size_t shard_count = 4;
  /// Attribute whose value routes an object to a shard ("rank" in the
  /// paper's deployment keeps one rank's timeline on one server).
  std::string shard_attr = "rank";
  /// Run per-shard queries on real threads (true) or inline (false);
  /// results are identical, the flag exists for determinism-sensitive
  /// tests and for the parallel-query benchmark.
  bool parallel_query = true;
};

class DsosCluster {
 public:
  explicit DsosCluster(ClusterConfig config);

  std::size_t shard_count() const { return shards_.size(); }
  Dsosd& shard(std::size_t i) { return *shards_[i]; }
  const Dsosd& shard(std::size_t i) const { return *shards_[i]; }

  /// Registers the schema on every shard.
  void register_schema(const SchemaPtr& schema);

  /// Routes the object to its shard by hashing the shard attribute (round
  /// robin when the schema lacks it) and inserts.
  void insert(Object obj);

  /// Routing only: the shard `obj` belongs to.  Exposed so the ingest
  /// executor can route on the caller thread (keeping the round-robin
  /// fallback deterministic in submission order) and insert on a worker.
  std::size_t route(const Object& obj);

  /// Inserts into a known shard — paired with route().  The ingest
  /// executor guarantees one writer per shard, so no locking here.
  void insert_at(std::size_t shard, Object obj);

  /// Durability barrier on one shard's container (Container::commit):
  /// true when everything inserted there is durable.  False with no
  /// persistence sink attached.
  bool commit_shard(std::size_t shard) {
    return shards_[shard]->container().commit();
  }

  std::size_t total_objects() const;

  /// Parallel query across shards: each shard answers with its own
  /// prefix scan (Container::query), and the hits are k-way merged into
  /// global index order.
  std::vector<const Object*> query(std::string_view schema_name,
                                   std::string_view index_name,
                                   const Filter& filter = {}) const;

 private:
  std::size_t shard_of(const Object& obj);

  ClusterConfig config_;
  std::vector<std::unique_ptr<Dsosd>> shards_;
  std::uint64_t round_robin_ = 0;
};

}  // namespace dlc::dsos
