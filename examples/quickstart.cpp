// Quickstart: the whole pipeline in one file.
//
// Runs a small MPI-IO-TEST job under the Darshan-LDMS Connector, lets the
// LDMS transport carry the JSON event stream to an aggregator where it is
// decoded into DSOS, then queries the timestamped events back out — the
// run-time view of application I/O the paper is about.
#include <cstdio>

#include "analysis/figures.hpp"
#include "core/decoder.hpp"
#include "dsos/csv.hpp"
#include "exp/specs.hpp"
#include "workloads/mpi_io_test.hpp"

using namespace dlc;

int main() {
  // 1. Describe the experiment: 4 nodes x 2 ranks, Lustre, collective I/O.
  exp::ExperimentSpec spec =
      exp::mpi_io_test_spec(simfs::FsKind::kLustre, /*collective=*/true);
  spec.node_count = 4;
  spec.ranks_per_node = 2;
  spec.job_id = 101;
  spec.decode_to_dsos = true;  // keep the events queryable

  workloads::MpiIoTestConfig small;
  small.iterations = 4;
  small.block_size = 4 * 1024 * 1024;
  small.collective = true;
  spec.workload = workloads::mpi_io_test(small);

  // 2. Run it: workload -> darshan -> connector -> LDMS -> DSOS.
  const exp::RunResult result = exp::run_experiment(spec);
  std::printf("job %llu ran %.2fs (virtual), %llu I/O events, %llu messages "
              "published, %llu stored, %llu dropped\n",
              static_cast<unsigned long long>(spec.job_id), result.runtime_s,
              static_cast<unsigned long long>(result.events),
              static_cast<unsigned long long>(result.messages),
              static_cast<unsigned long long>(result.stored),
              static_cast<unsigned long long>(result.dropped));
  std::printf("mean publish->store latency: %.3f ms\n\n",
              result.mean_latency_s * 1e3);

  // 3. Query the event database: rank 3's timeline via the job_rank_time
  //    joint index.
  const auto rows = result.dsos->query(
      "darshan_data", "job_rank_time",
      dsos::Filter{{"job_id", std::uint64_t{101}}, {"rank", std::int64_t{3}}});
  std::printf("rank 3 timeline (%zu events):\n", rows.size());
  std::printf("  %-6s %-7s %12s %10s %12s\n", "op", "module", "offset",
              "bytes", "dur (s)");
  for (const dsos::Object* row : rows) {
    std::printf("  %-6s %-7s %12lld %10lld %12.4f\n",
                row->as_string("op").c_str(),
                row->as_string("module").c_str(),
                static_cast<long long>(row->as_int("seg_off")),
                static_cast<long long>(row->as_int("seg_len")),
                row->as_double("seg_dur"));
  }

  // 4. Aggregate analysis (what a Grafana panel would show).
  const analysis::DataFrame events =
      analysis::job_events(*result.dsos, spec.job_id);
  const analysis::DataFrame by_op = events.group_by(
      {"op"}, {{.column = "", .op = analysis::Agg::kCount, .out_name = "n"},
               {.column = "seg_dur", .op = analysis::Agg::kMean,
                .out_name = "mean_dur"}});
  std::printf("\nper-op summary:\n");
  for (std::size_t r = 0; r < by_op.rows(); ++r) {
    std::printf("  %-6s n=%-4.0f mean_dur=%.4fs\n",
                by_op.get_string(r, "op").c_str(), by_op.get_double(r, "n"),
                by_op.get_double(r, "mean_dur"));
  }
  return 0;
}
