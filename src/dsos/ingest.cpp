#include "dsos/ingest.hpp"

#include <algorithm>
#include <string>

#include "obs/registry.hpp"
#include "util/clock.hpp"
#include "util/cpu.hpp"

namespace dlc::dsos {

namespace {

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
  config_.batch = std::max<std::size_t>(1, config_.batch);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  const std::size_t n = std::min(config_.workers, shards);
  if (n == 0) return;  // serial mode: no queues, no threads

  queues_.reserve(shards);
  pending_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    queues_.push_back(
        std::make_unique<SpscRing<Batch>>(config_.queue_capacity));
    pending_[s].objects.reserve(config_.batch);
  }
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
  pending_[shard].objects.push_back(std::move(obj));
  if (pending_[shard].objects.size() >= config_.batch) flush_shard(shard);
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
  obs::TraceContext anchored = trace;
  anchored.real_anchor_ns = util::now_ns();
  pending_[shard].traces.emplace_back(pending_[shard].objects.size(),
                                      std::move(anchored));
  pending_[shard].objects.push_back(std::move(obj));
  if (pending_[shard].objects.size() >= config_.batch) flush_shard(shard);
}

void IngestExecutor::flush_shard(std::size_t shard) {
  if (pending_[shard].objects.empty()) return;
  Batch batch;
  batch.objects.reserve(config_.batch);
  batch.objects.swap(pending_[shard].objects);
  batch.traces.swap(pending_[shard].traces);
  bool waited = false;
  const std::uint64_t t0 = util::now_ns();
  queues_[shard]->push_wait(std::move(batch), 0, &waited);
  if (waited) {
    const std::uint64_t wait_ns = util::now_ns() - t0;
    backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
    backpressure_wait_ns_.fetch_add(wait_ns, std::memory_order_relaxed);
    if (obs::enabled()) {
      ingest_obs().backpressure_waits.add();
      ingest_obs().backpressure_wait_ns.record(wait_ns);
    }
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    ingest_obs().queue_depth.set_max(
        static_cast<std::int64_t>(queues_[shard]->size()));
  }
  Worker& worker = *workers_[shard % workers_.size()];
  {
    // Empty critical section: pairs with the predicate check the worker
    // performs under this mutex, so a push between "predicate false" and
    // "wait" cannot lose its notification.
    const util::LockGuard lock(worker.m);
  }
  worker.cv.notify_one();
}

void IngestExecutor::drain() {
  for (std::size_t s = 0; s < pending_.size(); ++s) flush_shard(s);
  {
    util::UniqueLock lock(done_m_);
    done_cv_.wait(lock, [&]() DLC_REQUIRES(done_m_) {
      return inserted_ == submitted_.load(std::memory_order_relaxed);
    });
  }
  // Durability barrier: group-commit every shard so a drained executor
  // means "acknowledged durable", not just "indexed".  A no-op (false)
  // when no persistence sink is attached — memory mode stays free.
  for (std::size_t s = 0; s < cluster_.shard_count(); ++s) {
    cluster_.commit_shard(s);
  }
}

void IngestExecutor::worker_loop(std::size_t w) {
  Worker& self = *workers_[w];
  const std::size_t stride = workers_.size();
  // Writer placement (ConnectorConfig::pin): pin this writer so it stays on
  // one core/socket with its rings; record what actually happened —
  // tests and operators read it back via writer_placements() and the
  // dlc.ingest.writer.<w>.cpu gauges on /api/obs.  Cold path: gauges are
  // looked up once per worker lifetime, set per wakeup round.
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
  auto has_work = [&] {
    for (std::size_t s = w; s < queues_.size(); s += stride) {
      if (queues_[s]->size() != 0) return true;
    }
    return false;
  };
  for (;;) {
    {
      util::UniqueLock lock(self.m);
      self.cv.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) || has_work();
      });
    }
    std::uint64_t done = 0;
    for (std::size_t s = w; s < queues_.size(); s += stride) {
      while (auto batch = queues_[s]->try_pop()) {
        if (config_.commit_hook) config_.commit_hook();
        const std::uint64_t t0 = util::now_ns();
        for (Object& obj : batch->objects) {
          cluster_.insert_at(s, std::move(obj));
          ++done;
        }
        const std::uint64_t t_inserted = util::now_ns();
        // Per-batch durability barrier: with a store attached this is
        // the WAL group commit for everything inserted above; without
        // one it is a no-op returning false.
        const bool durable = cluster_.commit_shard(s);
        const std::uint64_t t_durable = durable ? util::now_ns() : 0;
        if (obs::enabled()) {
          ingest_obs().commit_ns.record(util::now_ns() - t0);
        }
        if (collector_ != nullptr) {
          for (auto& [index, trace] : batch->traces) {
            // Workers run off the virtual timeline: the commit stamp is
            // the enqueue hop plus real elapsed time since submission.
            obs::TraceContext finished = trace;
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
      }
    }
    if (done != 0) {
      {
        const util::LockGuard lock(done_m_);
        inserted_ += done;
      }
      done_cv_.notify_all();
      const int cpu = util::current_cpu();
      self.last_cpu.store(cpu, std::memory_order_relaxed);
      cpu_gauge.set(cpu);
    }
    if (stop_.load(std::memory_order_acquire) && !has_work()) return;
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
