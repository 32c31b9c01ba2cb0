// Sharded ingest executor: parallel insertion into a DsosCluster with one
// writer per shard and deterministic results.
//
// The paper's DSOS tier shards storage across dsosd daemons precisely so
// ingest and query scale with servers; this executor is the client-side
// half of that bargain.  Decoded events are ROUTED ON THE CALLER THREAD
// (so the cluster's round-robin fallback and hash routing see events in
// submission order — identical to serial ingest) and pushed, one row at a
// time, onto their shard's bounded ring.  Each worker exclusively owns a
// fixed subset of shards (shard % workers == worker), so every Container
// has exactly one writer and needs no locking.
//
// Group commit with a linger: a writer woken from idle waits at most a
// fixed 1 ms for a group to gather (a full group of 64 rows, drain() or
// shutdown cuts the wait short), then commits everything its rings hold
// as one group per shard — one insert run and one Container::commit, so
// one WAL group commit and one rollup seal check — and keeps committing
// whatever queued meanwhile, without lingering again, until its rings
// are empty.  A row is therefore queryable within about the linger plus
// the groups ahead of it, and under load each group is whatever arrived
// while the previous one committed.  The submitter wakes a writer only
// when a ring goes from empty to non-empty or holds a full group.
//
// Determinism: per-shard rings are FIFO and each shard has a single
// inserting worker, so the per-shard insertion order equals the caller's
// submission order — byte-identical query results to serial ingest, which
// bench_ingest --check and the ingest property tests verify.  Where the
// linger cuts a group changes when rows commit, never what is stored.
//
// Back-pressure, not loss: submit() blocks (SpscRing::push_wait) when a
// shard's ring is full.  The transport tier drops on overflow because
// LDMS Streams is best-effort, but events that survived decode must reach
// the store exactly once.
//
// drain() blocks until every submitted event is inserted, then commits
// every shard — the deterministic flush and durability point virtual-time
// tests and the pipeline's end-of-run accounting rely on.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "dsos/cluster.hpp"
#include "obs/spans.hpp"
#include "util/spsc_ring.hpp"
#include "util/thread.hpp"
#include "util/thread_annotations.hpp"

namespace dlc::dsos {

struct IngestConfig {
  /// Worker threads; 0 = serial (insert inline on the caller thread,
  /// preserving pre-executor behaviour).  Clamped to the shard count —
  /// extra workers would own no shards.
  std::size_t workers = 0;
  /// Per-shard ring capacity, in rows.  Small values exercise
  /// back-pressure (the property tests run with capacity 1).
  std::size_t queue_capacity = 4096;
  /// Test seam: the inserting worker calls this once per commit group,
  /// after the group's rows are fixed and before inserting them.  Lets
  /// tests stall workers deterministically to force back-pressure or to
  /// cut groups at chosen points (see the ingest tests).
  std::function<void()> commit_hook;
  /// Writer placement: worker w pins itself to pin_cpus[w % size()] at
  /// startup; empty (the default) = no pinning.  Resolve the
  /// ConnectorConfig::pin policy with util::resolve_pin_cpus — the executor
  /// takes concrete CPU numbers only.  A failed pin degrades to unpinned
  /// and is visible in writer_placements() / the obs gauges.
  std::vector<int> pin_cpus;
};

struct IngestStats {
  std::uint64_t submitted = 0;  // events accepted by submit()
  std::uint64_t inserted = 0;   // events inserted into containers
  std::uint64_t batches = 0;    // commit groups the workers committed
  std::uint64_t backpressure_waits = 0;  // pushes that had to block
  /// Total real (wall-clock) ns submit() spent blocked on full shard
  /// queues; also recorded per wait into dlc.ingest.backpressure_wait_ns.
  std::uint64_t backpressure_wait_ns = 0;
};

class IngestExecutor {
 public:
  /// The cluster must outlive the executor.  Workers start immediately.
  IngestExecutor(DsosCluster& cluster, IngestConfig config);

  /// Drains and joins the workers.
  ~IngestExecutor();

  IngestExecutor(const IngestExecutor&) = delete;
  IngestExecutor& operator=(const IngestExecutor&) = delete;

  /// Routes the event and either inserts inline (serial mode) or pushes
  /// it onto its shard's ring.  Call from ONE thread (the decoder);
  /// routing order is what makes parallel ingest deterministic.
  void submit(Object obj);

  /// submit() for a row carrying a sampled pipeline trace.  Anchors the
  /// context to the real clock here; the inserting worker stamps
  /// kCommitted as the ingest-enqueue hop plus real elapsed time (worker
  /// threads run off the virtual timeline) and completes the span on the
  /// collector set via set_trace_collector().
  void submit_traced(Object obj, const obs::TraceContext& trace);

  /// Sink for finished traces.  Set before the first submit_traced();
  /// nullptr (the default) makes submit_traced behave like submit.
  void set_trace_collector(obs::TraceCollector* collector) {
    collector_ = collector;
  }

  /// Cuts every writer's linger short, blocks until everything submitted
  /// so far has been inserted, then commits every shard.  The executor
  /// remains usable afterwards.
  void drain();

  std::size_t workers() const { return threads_.size(); }
  IngestStats stats() const;

  /// Actual placement of one writer thread, recorded by the worker at
  /// startup and refreshed as it runs; also published as the
  /// dlc.ingest.writer.<w>.cpu / .pinned_cpu gauges (see /api/obs).
  struct WriterPlacement {
    int pinned_cpu = -1;  // requested+applied pin; -1 = unpinned
    int last_cpu = -1;    // CPU the worker last observed itself on
  };
  std::vector<WriterPlacement> writer_placements() const;

 private:
  struct Worker {
    // Lock hierarchy: IngestWorker is a leaf (the wakeup predicates poll
    // the rings' lock-free sizes under m); see DESIGN.md "Concurrency
    // invariants & lock hierarchy".
    util::Mutex m{"IngestWorker"};
    util::CondVar cv;
    // atomic-protocol: kind=gauge pairs=IngestExecutor::stats
    std::atomic<int> pinned_cpu{-1};
    // atomic-protocol: kind=gauge pairs=IngestExecutor::stats
    std::atomic<int> last_cpu{-1};
  };

  /// One ring slot: a routed row plus the sampled trace riding on it
  /// (null for all but the sampled few).
  struct Row {
    Object obj;
    std::unique_ptr<obs::TraceContext> trace;
  };

  void enqueue(std::size_t shard, Row row);
  static void wake(Worker& worker);
  bool has_rows(std::size_t w, std::size_t rows) const;
  std::uint64_t commit_queued(std::size_t w);
  void worker_loop(std::size_t w);

  DsosCluster& cluster_;
  IngestConfig config_;
  obs::TraceCollector* collector_ = nullptr;

  // One ring of rows per shard.  Every ring is a strict
  // 1-producer/1-consumer edge — submit() is single-threaded by contract
  // (the decoder thread, which is also the drain() caller) and worker
  // (shard % workers) is the only consumer — so each is a lock-free
  // SpscRing: steady-state enqueue/dequeue never touches a mutex, and
  // each Container keeps its single-writer invariant.
  std::vector<std::unique_ptr<SpscRing<Row>>> queues_;
  // Ring depth each shard showed after the submitter's last push (its
  // own bookkeeping; a depth below capacity means the next push cannot
  // block, so only a possibly-blocking push reads the clock).
  std::vector<std::size_t> depth_;
  std::size_t group_rows_ = 0;  // a full group: min(64, queue_capacity)
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<util::Thread> threads_;

  // atomic-protocol: kind=flag pairs=worker_loop-wakeup-predicate
  std::atomic<bool> stop_{false};
  // Set by drain() while it waits: lingering writers commit at once.
  // atomic-protocol: kind=flag pairs=worker_loop-linger-predicate
  std::atomic<bool> draining_{false};

  // Read by stats() from ANY thread — the annotation pass flagged the
  // previous plain-uint64 fields as unguarded cross-thread reads, so they
  // are relaxed atomics (monotonic; no ordering required).  The submitting
  // thread writes submitted_ and the back-pressure counters; the workers
  // add their commit groups to batches_.  inserted_ is multi-writer and
  // stays guarded by done_m_, which also serves the drain() wakeup.
  // atomic-protocol: kind=counter pairs=IngestExecutor::stats/drain
  std::atomic<std::uint64_t> submitted_{0};
  // atomic-protocol: kind=counter pairs=IngestExecutor::stats
  std::atomic<std::uint64_t> batches_{0};
  // atomic-protocol: kind=counter pairs=IngestExecutor::stats
  std::atomic<std::uint64_t> backpressure_waits_{0};
  // atomic-protocol: kind=counter pairs=IngestExecutor::stats
  std::atomic<std::uint64_t> backpressure_wait_ns_{0};
  mutable util::Mutex done_m_{"IngestDone"};
  util::CondVar done_cv_;
  std::uint64_t inserted_ DLC_GUARDED_BY(done_m_) = 0;
};

}  // namespace dlc::dsos
