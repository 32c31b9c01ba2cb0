#include "dsos/ingest.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>

#include "obs/registry.hpp"
#include "util/clock.hpp"
#include "util/cpu.hpp"

namespace dlc::dsos {

namespace {

/// A full commit group, in rows: a lingering writer commits as soon as one
/// of its rings holds this many (or the ring's whole capacity, if less).
constexpr std::size_t kGroupRows = 64;

/// The longest a writer woken from idle waits for its group to gather.
/// Why 1 ms: in a flat-out JSON pass the writer outruns the decoder, so
/// it empties its rings and goes idle between rows; the linger caps such
/// a busy writer's wakeups at about one per millisecond, where waking per
/// row would cost a futex wake per event.  At a trickle it bounds how long
/// a row waits to become queryable.
constexpr std::chrono::microseconds kLinger{1000};

/// Registry mirrors (cached once; see obs/registry.hpp).
struct IngestObs {
  obs::Counter& backpressure_waits;
  obs::LogHistogram& backpressure_wait_ns;
  obs::LogHistogram& commit_ns;
  obs::Gauge& queue_depth;
};

IngestObs& ingest_obs() {
  static IngestObs o{
      obs::Registry::global().counter("dlc.ingest.backpressure_waits"),
      obs::Registry::global().histogram("dlc.ingest.backpressure_wait_ns"),
      obs::Registry::global().histogram("dlc.ingest.commit_ns"),
      obs::Registry::global().gauge("dlc.ingest.queue_depth"),
  };
  return o;
}

}  // namespace

IngestExecutor::IngestExecutor(DsosCluster& cluster, IngestConfig config)
    : cluster_(cluster), config_(std::move(config)) {
  const std::size_t shards = cluster_.shard_count();
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  group_rows_ = std::min(kGroupRows, config_.queue_capacity);
  const std::size_t n = std::min(config_.workers, shards);
  if (n == 0) return;  // serial mode: no queues, no threads

  queues_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    queues_.push_back(std::make_unique<SpscRing<Row>>(config_.queue_capacity));
  }
  depth_.assign(shards, 0);
  workers_.reserve(n);
  threads_.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t w = 0; w < n; ++w) {
    threads_.emplace_back("dlc-ingest", [this, w] { worker_loop(w); });
  }
}

IngestExecutor::~IngestExecutor() {
  if (!threads_.empty()) {
    drain();
    stop_.store(true, std::memory_order_release);
    for (auto& worker : workers_) {
      const util::LockGuard lock(worker->m);
    }
    for (auto& worker : workers_) worker->cv.notify_all();
    for (util::Thread& t : threads_) t.join();
  }
  for (auto& q : queues_) q->close();
}

void IngestExecutor::submit(Object obj) {
  const std::size_t shard = cluster_.route(obj);  // caller-thread routing
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (threads_.empty()) {
    cluster_.insert_at(shard, std::move(obj));
    const util::LockGuard lock(done_m_);
    ++inserted_;
    return;
  }
  enqueue(shard, Row{std::move(obj), nullptr});
}

void IngestExecutor::submit_traced(Object obj, const obs::TraceContext& trace) {
  const std::size_t shard = cluster_.route(obj);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (threads_.empty()) {
    cluster_.insert_at(shard, std::move(obj));
    {
      const util::LockGuard lock(done_m_);
      ++inserted_;
    }
    if (collector_ != nullptr) {
      // Serial mode commits inline: no real time passes on the virtual
      // timeline, so the commit lands at the enqueue hop.
      obs::TraceContext done = trace;
      done.stamp(obs::Hop::kCommitted, done.hop(obs::Hop::kIngestEnqueued));
      collector_->complete(done);
    }
    return;
  }
  auto anchored = std::make_unique<obs::TraceContext>(trace);
  anchored->real_anchor_ns = util::now_ns();
  enqueue(shard, Row{std::move(obj), std::move(anchored)});
}

void IngestExecutor::enqueue(std::size_t shard, Row row) {
  SpscRing<Row>& ring = *queues_[shard];
  // Only a ring that looked full after the last push can block this one.
  const bool may_block = depth_[shard] >= ring.capacity();
  const std::uint64_t t0 = may_block ? util::now_ns() : 0;
  bool waited = false;
  ring.push_wait(std::move(row), 0, &waited);
  if (waited) {
    const std::uint64_t wait_ns = util::now_ns() - t0;
    backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
    backpressure_wait_ns_.fetch_add(wait_ns, std::memory_order_relaxed);
    if (obs::enabled()) {
      ingest_obs().backpressure_waits.add();
      ingest_obs().backpressure_wait_ns.record(wait_ns);
    }
  }
  const std::size_t depth = ring.size();
  depth_[shard] = depth;
  if (obs::enabled()) {
    ingest_obs().queue_depth.set_max(static_cast<std::int64_t>(depth));
  }
  // Wake the writer when the ring goes from empty to non-empty (it may be
  // idle) or holds a full group (it may be lingering); otherwise it is
  // busy and re-checks its rings after each group.  No wake is lost when
  // the writer empties the ring concurrently: push and pop each end with
  // a seq_cst fence (SpscRing's Dekker handshake), so either this read
  // sees the pop and wakes, or the writer's idle check sees the push.
  if (depth == 1 || depth == group_rows_) {
    wake(*workers_[shard % workers_.size()]);
  }
}

void IngestExecutor::wake(Worker& worker) {
  {
    // Empty critical section: pairs with the predicate check the worker
    // performs under this mutex, so a push between "predicate false" and
    // "wait" cannot lose its notification.
    const util::LockGuard lock(worker.m);
  }
  worker.cv.notify_one();
}

void IngestExecutor::drain() {
  if (!threads_.empty()) {
    draining_.store(true, std::memory_order_release);
    for (auto& worker : workers_) wake(*worker);
    {
      util::UniqueLock lock(done_m_);
      done_cv_.wait(lock, [&]() DLC_REQUIRES(done_m_) {
        return inserted_ == submitted_.load(std::memory_order_relaxed);
      });
    }
    draining_.store(false, std::memory_order_release);
  }
  // Durability barrier: group-commit every shard so a drained executor
  // means "acknowledged durable", not just "indexed".  A no-op (false)
  // when no persistence sink is attached — memory mode stays free.
  for (std::size_t s = 0; s < cluster_.shard_count(); ++s) {
    cluster_.commit_shard(s);
  }
}

bool IngestExecutor::has_rows(std::size_t w, std::size_t rows) const {
  for (std::size_t s = w; s < queues_.size(); s += workers_.size()) {
    if (queues_[s]->size() >= rows) return true;
  }
  return false;
}

std::uint64_t IngestExecutor::commit_queued(std::size_t w) {
  std::uint64_t done = 0;
  std::vector<std::unique_ptr<obs::TraceContext>> traces;
  for (std::size_t s = w; s < queues_.size(); s += workers_.size()) {
    SpscRing<Row>& ring = *queues_[s];
    // The group is what the ring holds now; rows pushed while it commits
    // form the next one.
    const std::size_t rows = ring.size();
    if (rows == 0) continue;
    if (config_.commit_hook) config_.commit_hook();
    const std::uint64_t t0 = util::now_ns();
    for (std::size_t i = 0; i < rows; ++i) {
      std::optional<Row> row = ring.try_pop();  // single consumer: present
      if (row->trace) traces.push_back(std::move(row->trace));
      cluster_.insert_at(s, std::move(row->obj));
    }
    done += rows;
    batches_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t t_inserted = util::now_ns();
    // Per-group durability barrier: with a store attached this is the WAL
    // group commit for everything inserted above; without one it is a
    // no-op returning false.  Either way the commit observers (rollup
    // seal check) run once for the group.
    const bool durable = cluster_.commit_shard(s);
    const std::uint64_t t_durable = durable ? util::now_ns() : 0;
    if (obs::enabled()) {
      ingest_obs().commit_ns.record(util::now_ns() - t0);
    }
    if (collector_ != nullptr) {
      for (const auto& trace : traces) {
        // Workers run off the virtual timeline: the commit stamp is the
        // enqueue hop plus real elapsed time since submission.
        obs::TraceContext& finished = *trace;
        const std::int64_t enq = finished.hop(obs::Hop::kIngestEnqueued);
        finished.stamp(obs::Hop::kCommitted,
                       enq + static_cast<std::int64_t>(
                                 t_inserted - finished.real_anchor_ns));
        if (durable) {
          finished.committed_durable =
              enq + static_cast<std::int64_t>(t_durable -
                                              finished.real_anchor_ns);
        }
        collector_->complete(finished);
      }
    }
    traces.clear();
  }
  if (done != 0) {
    {
      const util::LockGuard lock(done_m_);
      inserted_ += done;
    }
    done_cv_.notify_all();
  }
  return done;
}

void IngestExecutor::worker_loop(std::size_t w) {
  Worker& self = *workers_[w];
  // Writer placement (ConnectorConfig::pin): pin this writer so it stays on
  // one core/socket with its rings; record what actually happened —
  // tests and operators read it back via writer_placements() and the
  // dlc.ingest.writer.<w>.cpu gauges on /api/obs.  Cold path: gauges are
  // looked up once per worker lifetime, set once per busy spell.
  if (!config_.pin_cpus.empty()) {
    const int target =
        config_.pin_cpus[w % config_.pin_cpus.size()];
    if (util::pin_current_thread(target)) {
      self.pinned_cpu.store(target, std::memory_order_relaxed);
    }
  }
  const std::string prefix = "dlc.ingest.writer." + std::to_string(w);
  obs::Gauge& cpu_gauge = obs::Registry::global().gauge(prefix + ".cpu");
  obs::Registry::global()
      .gauge(prefix + ".pinned_cpu")
      .set(self.pinned_cpu.load(std::memory_order_relaxed));
  const int startup_cpu = util::current_cpu();
  self.last_cpu.store(startup_cpu, std::memory_order_relaxed);
  cpu_gauge.set(startup_cpu);
  for (;;) {
    {
      util::UniqueLock lock(self.m);
      // Idle: sleep, with no timeout, until a row arrives or shutdown.
      self.cv.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) || has_rows(w, 1);
      });
      if (!has_rows(w, 1)) return;  // shutdown with nothing queued
      // Linger: give the group up to kLinger to gather.
      const auto deadline = std::chrono::steady_clock::now() + kLinger;
      self.cv.wait_until(lock, deadline, [&] {
        return stop_.load(std::memory_order_acquire) ||
               draining_.load(std::memory_order_acquire) ||
               has_rows(w, group_rows_);
      });
    }
    // Busy: commit group after group, without lingering, until empty.
    while (commit_queued(w) != 0) {
    }
    const int cpu = util::current_cpu();
    self.last_cpu.store(cpu, std::memory_order_relaxed);
    cpu_gauge.set(cpu);
  }
}

std::vector<IngestExecutor::WriterPlacement>
IngestExecutor::writer_placements() const {
  std::vector<WriterPlacement> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) {
    WriterPlacement p;
    p.pinned_cpu = worker->pinned_cpu.load(std::memory_order_relaxed);
    p.last_cpu = worker->last_cpu.load(std::memory_order_relaxed);
    out.push_back(p);
  }
  return out;
}

IngestStats IngestExecutor::stats() const {
  IngestStats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.backpressure_waits = backpressure_waits_.load(std::memory_order_relaxed);
  out.backpressure_wait_ns =
      backpressure_wait_ns_.load(std::memory_order_relaxed);
  const util::LockGuard lock(done_m_);
  out.inserted = inserted_;
  return out;
}

}  // namespace dlc::dsos
