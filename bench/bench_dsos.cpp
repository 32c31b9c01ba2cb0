// Microbenchmark: DSOS ingest rate and query latency as a function of the
// joint index used — the paper's point that "each index provided a
// different query performance" (job_rank_time answers rank-over-time
// queries with a pure prefix scan; the time index must scan everything).
#include <benchmark/benchmark.h>

#include <memory>

#include "core/schema_darshan.hpp"
#include "dsos/cluster.hpp"
#include "util/rng.hpp"

namespace {

using namespace dlc;

dsos::Object random_event(const dsos::SchemaPtr& schema, Rng& rng,
                          std::uint64_t jobs, std::int64_t ranks) {
  const std::uint64_t job = 1 + rng.next_u64() % jobs;
  const std::int64_t rank = rng.uniform_int(0, ranks - 1);
  const double ts = rng.uniform(1.6e9, 1.6e9 + 1000.0);
  return dsos::make_object(
      schema,
      {std::string("POSIX"), std::uint64_t{99066}, std::string("nid00046"),
       std::int64_t{0}, std::string("N/A"), rank, std::int64_t{-1},
       rng.next_u64(), std::string("N/A"), std::int64_t{1 << 20},
       std::string("MOD"), job, std::string("write"), std::int64_t{2},
       std::int64_t{0}, std::int64_t{-1}, 0.05, std::int64_t{1 << 20},
       std::int64_t{-1}, std::int64_t{-1}, std::int64_t{-1},
       std::string("N/A"), std::int64_t{-1}, ts});
}

void BM_DsosIngest(benchmark::State& state) {
  const auto schema = core::darshan_data_schema();
  Rng rng(5);
  dsos::ClusterConfig cfg;
  cfg.shard_count = static_cast<std::size_t>(state.range(0));
  dsos::DsosCluster cluster(cfg);
  cluster.register_schema(schema);
  for (auto _ : state) {
    cluster.insert(random_event(schema, rng, 8, 32));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DsosIngest)->Arg(1)->Arg(4)->Arg(8);

struct QueryFixture {
  std::shared_ptr<dsos::DsosCluster> cluster;
  dsos::SchemaPtr schema;

  explicit QueryFixture(std::size_t events) {
    schema = core::darshan_data_schema();
    dsos::ClusterConfig cfg;
    cfg.shard_count = 4;
    cluster = std::make_shared<dsos::DsosCluster>(cfg);
    cluster->register_schema(schema);
    Rng rng(11);
    for (std::size_t i = 0; i < events; ++i) {
      cluster->insert(random_event(schema, rng, 8, 32));
    }
  }
};

// Query: one rank of one job over time (the paper's example query).
const dsos::Filter kRankQuery{
    {"job_id", std::uint64_t{3}},
    {"rank", std::int64_t{7}},
};

void BM_DsosQuery_JobRankTime(benchmark::State& state) {
  static const QueryFixture fixture(100'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.cluster->query("darshan_data", "job_rank_time", kRankQuery));
  }
}
BENCHMARK(BM_DsosQuery_JobRankTime);

void BM_DsosQuery_JobTimeRank(benchmark::State& state) {
  // Same filter via job_time_rank: job folds into the prefix, rank is a
  // residual condition over the whole job -> more entries scanned.
  static const QueryFixture fixture(100'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.cluster->query("darshan_data", "job_time_rank", kRankQuery));
  }
}
BENCHMARK(BM_DsosQuery_JobTimeRank);

void BM_DsosQuery_TimeOnly(benchmark::State& state) {
  // Worst case: the plain time index cannot use the filter at all.
  static const QueryFixture fixture(100'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.cluster->query("darshan_data", "time", kRankQuery));
  }
}
BENCHMARK(BM_DsosQuery_TimeOnly);

}  // namespace

BENCHMARK_MAIN();
