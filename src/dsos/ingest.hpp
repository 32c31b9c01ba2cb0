// Sharded ingest executor: parallel insertion into a DsosCluster with one
// writer per shard and deterministic results.
//
// The paper's DSOS tier shards storage across dsosd daemons precisely so
// ingest and query scale with servers; this executor is the client-side
// half of that bargain.  Decoded events are ROUTED ON THE CALLER THREAD
// (so the cluster's round-robin fallback and hash routing see events in
// submission order — identical to serial ingest), buffered into small
// per-shard batches, and handed to a worker pool through per-shard bounded
// queues.  Each worker exclusively owns a fixed subset of shards
// (shard % workers == worker), so every Container has exactly one writer
// and needs no locking.
//
// Determinism: per-shard queues are FIFO and each shard has a single
// inserting worker, so the per-shard insertion order equals the caller's
// submission order — byte-identical query results to serial ingest, which
// bench_ingest --check and the ingest property tests verify.
//
// Back-pressure, not loss: submit() blocks (SpscRing::push_wait) when a
// shard's queue is full.  The transport tier drops on overflow because
// LDMS Streams is best-effort, but events that survived decode must reach
// the store exactly once.
//
// drain() flushes caller-side buffers and blocks until every submitted
// event is inserted — the deterministic flush point virtual-time tests
// and the pipeline's end-of-run accounting rely on.
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
  /// Per-shard queue capacity, in batches.  Small values exercise
  /// back-pressure (the property tests run with capacity 1).
  std::size_t queue_capacity = 64;
  /// Events buffered per shard on the caller side before a batch is
  /// enqueued (amortises queue locking).  drain() flushes partial batches.
  std::size_t batch = 64;
  /// Test seam: the inserting worker calls this once per dequeued batch
  /// before inserting it.  Lets tests stall workers deterministically to
  /// force back-pressure (see the ingest back-pressure test).
  std::function<void()> commit_hook;
  /// Writer placement: worker w pins itself to pin_cpus[w % size()] at
  /// startup; empty (the default) = no pinning.  Resolve the
  /// DARSHAN_LDMS_PIN policy with util::resolve_pin_cpus — the executor
  /// takes concrete CPU numbers only.  A failed pin degrades to unpinned
  /// and is visible in writer_placements() / the obs gauges.
  std::vector<int> pin_cpus;
};

struct IngestStats {
  std::uint64_t submitted = 0;  // events accepted by submit()
  std::uint64_t inserted = 0;   // events inserted into containers
  std::uint64_t batches = 0;    // batches enqueued
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

  /// Routes the event and either inserts inline (serial mode) or buffers
  /// it toward its shard's queue.  Call from ONE thread (the decoder);
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

  /// Flushes partial batches and blocks until everything submitted so far
  /// has been inserted.  The executor remains usable afterwards.
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
    // Lock hierarchy: IngestWorker is a leaf (the wakeup predicate polls
    // the rings' lock-free sizes under m); see DESIGN.md "Concurrency
    // invariants & lock hierarchy".
    util::Mutex m{"IngestWorker"};
    util::CondVar cv;
    // atomic-protocol: kind=gauge pairs=IngestExecutor::stats
    std::atomic<int> pinned_cpu{-1};
    // atomic-protocol: kind=gauge pairs=IngestExecutor::stats
    std::atomic<int> last_cpu{-1};
  };

  /// One enqueued unit: a run of routed objects plus the sampled traces
  /// riding on some of them (sparse — typically none; index into
  /// `objects`).
  struct Batch {
    std::vector<Object> objects;
    std::vector<std::pair<std::size_t, obs::TraceContext>> traces;
  };

  void flush_shard(std::size_t shard);
  void worker_loop(std::size_t w);

  DsosCluster& cluster_;
  IngestConfig config_;
  obs::TraceCollector* collector_ = nullptr;

  // One queue of event batches per shard.  Every queue is a strict
  // 1-producer/1-consumer edge — submit() is single-threaded by contract
  // (the decoder thread, which is also the drain() caller) and worker
  // (shard % workers) is the only consumer — so each is a lock-free
  // SpscRing: steady-state enqueue/dequeue never touches a mutex, and
  // each Container keeps its single-writer invariant.
  std::vector<std::unique_ptr<SpscRing<Batch>>> queues_;
  std::vector<Batch> pending_;  // caller-side batch buffers
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<util::Thread> threads_;

  // atomic-protocol: kind=flag pairs=worker_loop-wakeup-predicate
  std::atomic<bool> stop_{false};

  // Written only by the submitting thread (which is also the drain()
  // caller) but read by stats() from ANY thread — the annotation pass
  // flagged the previous plain-uint64 fields as unguarded cross-thread
  // reads, so they are relaxed atomics now (single writer, monotonic;
  // no ordering required).  inserted_ is multi-writer and stays guarded
  // by done_m_, which also serves the drain() wakeup.
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
