// Delivery-guarantee benchmark: best-effort vs at-least-once under an
// identical fault schedule.
//
// Drives MPI-IO-TEST through the full pipeline twice — same workload,
// seed and fault plan (one compute-node daemon crash plus one
// aggregator-link partition) — differing only in
// ConnectorConfig::delivery.  Reports per-mode delivered/lost event
// counts and the transport bytes/event, so the cost of the guarantee
// (spool + redelivery duplicates) is a number, not a claim.
//
// --soak turns the run into a pass/fail gate for CI:
//   * best-effort must reproduce measurable loss under the faults,
//   * at-least-once must deliver every event (zero lost, duplicates
//     deduped downstream),
//   * the at-least-once byte overhead must stay under +50%.
//
// Scale knobs (env): DLC_RELIA_NODES, DLC_RELIA_ITERS.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/specs.hpp"
#include "exp/table.hpp"
#include "relia/fault.hpp"

using namespace dlc;

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long parsed = std::atol(v);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

// The reference schedule from the delivery-guarantee design: one compute
// node's daemon crashes mid-run, and later the head-node aggregator loses
// its link to Shirley.  Both windows sit inside the I/O phases of the
// MPI-IO-TEST timeline (compute gaps are 2 s per iteration).
constexpr const char* kReferencePlan =
    "# reference fault schedule\n"
    "crash nid00041 at 2500ms for 5s\n"
    "partition voltrino-head -> shirley at 9s for 4s\n";

struct ModeResult {
  exp::RunResult run;
  std::uint64_t delivered = 0;  // unique messages reaching Shirley
  double bytes_per_event = 0.0;
};

ModeResult run_mode(relia::DeliveryMode mode, std::size_t nodes,
                    std::uint64_t iters) {
  exp::ExperimentSpec spec = exp::base_spec(simfs::FsKind::kLustre);
  workloads::MpiIoTestConfig cfg;
  cfg.block_size = 4ull * 1024 * 1024;
  cfg.iterations = iters;
  cfg.collective = false;
  cfg.compute_per_iteration = 2 * kSecond;
  spec.workload = workloads::mpi_io_test(cfg);
  spec.exe = workloads::kMpiIoTestExe;
  spec.node_count = nodes;
  spec.ranks_per_node = 4;
  // A slow hop keeps a real backlog in flight: each iteration's message
  // wave takes long enough to drain that the fault windows are guaranteed
  // to open across undelivered queue contents — exercising both loss
  // (best effort) and lost-ack redelivery duplicates (at-least-once).
  spec.transport.hop_latency = 25 * kMillisecond;
  spec.connector.delivery = mode;
  spec.fault_plan = relia::parse_fault_plan(kReferencePlan);

  ModeResult out{exp::run_experiment(spec), 0, 0.0};
  out.delivered = out.run.messages - out.run.seq_lost;
  out.bytes_per_event =
      out.run.events_published
          ? static_cast<double>(out.run.transport_bytes) /
                static_cast<double>(out.run.events_published)
          : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool soak = argc > 1 && std::string(argv[1]) == "--soak";
  // Reference scale: the fault windows are calibrated against this
  // timeline (virtual time is deterministic, so the gate is exact here).
  // Other scales via the env knobs still report, but window edges may
  // fall into compute gaps where no redelivery duplicates arise.
  const std::size_t nodes = env_size("DLC_RELIA_NODES", 3);
  const std::uint64_t iters = env_size("DLC_RELIA_ITERS", 3);

  std::printf("== Delivery guarantees under faults: best-effort vs "
              "at-least-once ==\n\n");
  std::printf("MPI-IO-TEST, %zu nodes x 4 ranks, %llu iterations, Lustre.\n"
              "Fault schedule (identical for both modes):\n%s\n",
              nodes, static_cast<unsigned long long>(iters), kReferencePlan);

  const ModeResult be = run_mode(relia::DeliveryMode::kBestEffort, nodes,
                                 iters);
  const ModeResult alo = run_mode(relia::DeliveryMode::kAtLeastOnce, nodes,
                                  iters);

  exp::TextTable table({"Mode", "Published", "Delivered", "Lost", "Loss",
                        "Dup deduped", "Redelivered", "Spool evict",
                        "Bytes/event"});
  for (const auto* m : {&be, &alo}) {
    const bool is_alo = m == &alo;
    const double loss =
        m->run.messages
            ? static_cast<double>(m->run.seq_lost) /
                  static_cast<double>(m->run.messages) * 100.0
            : 0.0;
    table.add_row({is_alo ? "at_least_once" : "best_effort",
                   exp::cell_u(m->run.messages), exp::cell_u(m->delivered),
                   exp::cell_u(m->run.seq_lost), exp::cell_pct(loss),
                   exp::cell_u(m->run.duplicates_dropped),
                   exp::cell_u(m->run.redelivered),
                   exp::cell_u(m->run.spool_evicted),
                   exp::cell_f(m->bytes_per_event, 1)});
  }
  std::printf("%s\n", table.render().c_str());

  const double overhead =
      be.bytes_per_event > 0
          ? (alo.bytes_per_event / be.bytes_per_event - 1.0) * 100.0
          : 0.0;
  std::printf("at-least-once wire overhead vs best-effort: %+.1f%% "
              "bytes/event\n\n",
              overhead);

  bool ok = true;
  const auto check = [&](bool cond, const char* what) {
    std::printf("  [%s] %s\n", cond ? "PASS" : "FAIL", what);
    ok = ok && cond;
  };
  check(be.run.seq_lost > 0,
        "best-effort loses events under the fault schedule");
  check(alo.run.seq_lost == 0, "at-least-once delivers 100% of events");
  check(alo.run.duplicates_dropped > 0,
        "redelivery duplicates occur and are deduped downstream");
  check(alo.run.messages == be.run.messages,
        "both modes publish the same event stream");
  check(overhead < 50.0, "at-least-once byte overhead stays under +50%");

  if (!ok) {
    std::printf("\ndelivery-guarantee gate FAILED\n");
    return soak ? 1 : 0;
  }
  std::printf("\ndelivery-guarantee gate passed\n");
  return 0;
}
