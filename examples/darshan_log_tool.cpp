// darshan-util example: the post-run half of Darshan.
//
// Runs HMMER (scaled down) under instrumentation, writes the binary
// summary log darshan-runtime would emit at finalize, parses it back and
// prints a darshan-parser-style report — demonstrating that the connector
// *augments* the classic log workflow rather than replacing it.
#include <cstdio>
#include <filesystem>

#include "darshan/derived.hpp"
#include "darshan/log.hpp"
#include "exp/specs.hpp"

using namespace dlc;

int main() {
  std::printf("== darshan log round-trip (hmmbuild, scaled) ==\n\n");

  exp::ExperimentSpec spec = exp::hmmer_spec(simfs::FsKind::kLustre, 0.02);
  spec.job_id = 777;
  const exp::RunResult result = exp::run_experiment(spec);

  const std::filesystem::path log_path = "dlc_export/hmmbuild_777.darshan";
  std::filesystem::create_directories(log_path.parent_path());
  if (!darshan::write_log_file(result.darshan_log, log_path.string())) {
    std::fprintf(stderr, "failed to write %s\n", log_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%ju bytes, %zu records)\n", log_path.c_str(),
              static_cast<std::uintmax_t>(std::filesystem::file_size(log_path)),
              result.darshan_log.records.size());

  const auto parsed = darshan::read_log_file(log_path.string());
  if (!parsed) {
    std::fprintf(stderr, "failed to parse the log back\n");
    return 1;
  }

  // darshan-parser-style dump, trimmed to the first few records.
  std::string text = darshan::log_to_text(*parsed);
  if (text.size() > 2500) {
    text.resize(2500);
    text += "...\n";
  }
  std::printf("\n%s", text.c_str());

  // Summary statistics across records (what darshan job summaries show).
  std::uint64_t total_reads = 0, total_writes = 0, bytes_read = 0,
                bytes_written = 0, dxt_segments = 0;
  for (const auto& entry : parsed->records) {
    total_reads += static_cast<std::uint64_t>(entry.record.counters.reads);
    total_writes += static_cast<std::uint64_t>(entry.record.counters.writes);
    bytes_read += entry.record.counters.bytes_read;
    bytes_written += entry.record.counters.bytes_written;
    dxt_segments += entry.dxt.size();
  }
  std::printf("\njob totals: %llu reads (%s), %llu writes (%s), %llu DXT "
              "segments\n",
              static_cast<unsigned long long>(total_reads),
              format_bytes(bytes_read).c_str(),
              static_cast<unsigned long long>(total_writes),
              format_bytes(bytes_written).c_str(),
              static_cast<unsigned long long>(dxt_segments));

  // darshan-util derived analyses.
  const darshan::Log reduced =
      darshan::reduce_shared_records(result.darshan_log);
  const darshan::PerfEstimate perf =
      darshan::estimate_performance(result.darshan_log);
  const darshan::FileCountSummary files =
      darshan::count_files(result.darshan_log);
  std::printf("\nderived: %zu records after shared-file reduction; "
              "agg_perf_by_slowest %.1f MiB/s (rank %d); files: %llu total, "
              "%llu shared\n",
              reduced.records.size(), perf.agg_perf_by_slowest_mibs,
              perf.slowest_rank,
              static_cast<unsigned long long>(files.total),
              static_cast<unsigned long long>(files.shared));
  return 0;
}
