// Microbenchmark: darshan log serialisation — write and parse throughput
// and the log size (log_bytes) on a DXT-heavy log, the case that matters:
// full tracing of a long job.
#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>

#include "darshan/log.hpp"
#include "darshan/runtime.hpp"
#include "sim/engine.hpp"
#include "simfs/nfs.hpp"
#include "simhpc/cluster.hpp"
#include "simhpc/job.hpp"

namespace {

using namespace dlc;

/// Builds a log with `segments` DXT entries across 4 ranks.
darshan::Log build_log(int segments_per_rank) {
  sim::Engine engine;
  simhpc::Cluster cluster{simhpc::ClusterConfig{}};
  simfs::VariabilityConfig vcfg;
  vcfg.epoch_sigma = 0;
  vcfg.ar_sigma = 0;
  auto variability = std::make_shared<simfs::VariabilityProcess>(vcfg, 1);
  simfs::NfsConfig ncfg;
  ncfg.jitter_sigma = 0;
  simfs::NfsModel fs(engine, ncfg, variability, 1);
  simhpc::JobConfig jcfg;
  jcfg.node_count = 4;
  simhpc::Job job(engine, cluster, jcfg);
  darshan::RuntimeConfig rcfg;
  rcfg.dxt_max_segments = 1u << 20;
  darshan::Runtime runtime(engine, fs, job, rcfg);
  auto proc = [](darshan::Runtime& rt, int rank, int n) -> sim::Task<void> {
    darshan::RankIo io = rt.rank(rank);
    const darshan::Fd fd =
        co_await io.open(darshan::Module::kPosix, "/bench/file", true);
    for (int i = 0; i < n; ++i) co_await io.write(fd, 4096);
    co_await io.close(fd);
  };
  for (int r = 0; r < 4; ++r) {
    engine.spawn(proc(runtime, r, segments_per_rank));
  }
  engine.run();
  return runtime.finalize();
}

const darshan::Log& shared_log() {
  static const darshan::Log log = build_log(10'000);
  return log;
}

void BM_LogWrite(benchmark::State& state) {
  const darshan::Log& log = shared_log();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    darshan::write_log(log, out);
    bytes = out.str().size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["log_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_LogWrite);

void BM_LogParse(benchmark::State& state) {
  std::ostringstream out;
  darshan::write_log(shared_log(), out);
  const std::string bytes = out.str();
  for (auto _ : state) {
    std::istringstream in(bytes);
    benchmark::DoNotOptimize(darshan::read_log(in));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_LogParse);

}  // namespace

BENCHMARK_MAIN();
