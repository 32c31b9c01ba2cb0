#include "anomaly/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "json/writer.hpp"
#include "util/clock.hpp"

namespace dlc::anomaly {

namespace {

std::string format_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", s);
  return buf;
}

}  // namespace

rollup::PolicyConfig anomaly_policy(double bucket_s) {
  rollup::PolicyConfig p;
  p.name = std::string(kAnomalyPolicyName);
  p.keys = {"job_id", "ProducerName", "op"};
  p.bucket_s = bucket_s;
  p.match = {{"op", {"read", "write"}}};
  return p;
}

AnomalyEngine::AnomalyEngine(AnomalyConfig config) : config_(config) {
  obs::Registry& reg = obs::Registry::global();
  m_cells_ = &reg.counter("dlc.anomaly.cells");
  m_late_ = &reg.counter("dlc.anomaly.late_cells");
  m_buckets_ = &reg.counter("dlc.anomaly.buckets_evaluated");
  m_fired_ = &reg.counter("dlc.anomaly.alerts_fired");
  m_resolved_ = &reg.counter("dlc.anomaly.alerts_resolved");
  m_firing_ = &reg.gauge("dlc.anomaly.alerts_firing");
  m_eval_ns_ = &reg.histogram("dlc.anomaly.eval_ns");
}

AnomalyEngine::~AnomalyEngine() { detach(); }

void AnomalyEngine::attach(rollup::RollupEngine& engine) {
  if (rollup_ != nullptr) {
    if (rollup_ == &engine) return;
    throw std::logic_error("anomaly: already attached to another engine");
  }
  const rollup::PolicyConfig* p = engine.find_policy(kAnomalyPolicyName);
  if (p == nullptr) {
    throw std::invalid_argument(
        "anomaly: rollup engine has no '" + std::string(kAnomalyPolicyName) +
        "' policy — append anomaly_policy() to its policy list");
  }
  if (std::abs(p->bucket_s - config_.bucket_s) > 1e-9) {
    throw std::invalid_argument(
        "anomaly: source policy bucket " + format_seconds(p->bucket_s) +
        "s != configured bucket " + format_seconds(config_.bucket_s) + "s");
  }
  {
    const util::LockGuard lock(state_m_);
    const std::size_t n = std::max<std::size_t>(engine.shard_count(),
                                                shard_watermark_.size());
    shard_watermark_.resize(n, -std::numeric_limits<double>::infinity());
    shard_sealed_.resize(n, false);
  }
  rollup_ = &engine;
  engine.add_seal_observer(this);
}

void AnomalyEngine::detach() {
  if (rollup_ == nullptr) return;
  rollup_->remove_seal_observer(this);
  rollup_ = nullptr;
}

void AnomalyEngine::on_sealed(
    std::string_view policy, std::size_t shard, double watermark,
    const std::vector<std::pair<rollup::CellKey, rollup::CellAgg>>& cells) {
  if (policy != kAnomalyPolicyName) return;
  const std::uint64_t t0 = util::now_ns();
  std::uint64_t folded = 0;
  std::uint64_t late = 0;
  std::uint64_t evaluated = 0;
  {
    const util::LockGuard lock(state_m_);
    if (shard >= shard_watermark_.size()) {
      shard_watermark_.resize(shard + 1,
                              -std::numeric_limits<double>::infinity());
      shard_sealed_.resize(shard + 1, false);
    }
    for (const auto& [key, agg] : cells) {
      if (key.bucket <= evaluated_bucket_) {
        // A shard whose first seal arrived after the frontier already
        // passed this bucket: count it, don't re-open evaluated state.
        ++late;
        continue;
      }
      SeriesAgg& s =
          pending_[key.bucket][SeriesKey{key.job, key.producer, key.op}];
      s.count += agg.count;
      s.dur_sum += agg.dur_sum;
      ++folded;
    }
    shard_watermark_[shard] = std::max(shard_watermark_[shard], watermark);
    shard_sealed_[shard] = true;

    // The frontier: the least watermark across ALL shards.  Each
    // (job, node, op) series lives on one shard, so a bucket is only
    // complete once every shard has sealed past its end; a shard that
    // has never sealed holds the frontier at -inf (its watermark's
    // initial value) — evaluating before the first commit round
    // completes would see partial buckets and miss stragglers.
    double frontier = std::numeric_limits<double>::infinity();
    for (const double w : shard_watermark_) {
      frontier = std::min(frontier, w);
    }
    while (!pending_.empty()) {
      const std::int64_t bucket = pending_.begin()->first;
      const double end = static_cast<double>(bucket + 1) * config_.bucket_s;
      if (end > frontier) break;
      std::vector<Observation> obs;
      evaluate_bucket(bucket, obs);
      pending_.erase(pending_.begin());
      evaluated_bucket_ = bucket;
      ++evaluated;
      observations_.fetch_add(obs.size(), std::memory_order_relaxed);
      // AnomalyAlerts nests inside AnomalyState (§5c) so concurrent
      // seals cannot feed the manager's streak logic out of order.
      const util::LockGuard alock(alerts_m_);
      manager_.observe_bucket(static_cast<double>(bucket) * config_.bucket_s,
                              obs);
    }
  }
  cells_.fetch_add(folded, std::memory_order_relaxed);
  late_cells_.fetch_add(late, std::memory_order_relaxed);
  buckets_evaluated_.fetch_add(evaluated, std::memory_order_relaxed);
  if (obs::enabled()) {
    if (folded != 0) m_cells_->add(folded);
    if (late != 0) m_late_->add(late);
    if (evaluated != 0) {
      m_buckets_->add(evaluated);
      m_eval_ns_->record(util::now_ns() - t0);
      const util::LockGuard alock(alerts_m_);
      // Counters mirror the manager's monotone totals via deltas.
      m_fired_->add(manager_.total_fired() - published_fired_);
      published_fired_ = manager_.total_fired();
      m_resolved_->add(manager_.total_resolved() - published_resolved_);
      published_resolved_ = manager_.total_resolved();
      m_firing_->set(static_cast<std::int64_t>(manager_.firing()));
    }
  }
}

void AnomalyEngine::evaluate_bucket(std::int64_t bucket,
                                    std::vector<Observation>& out) {
  const auto it = pending_.find(bucket);
  const double bucket_start = static_cast<double>(bucket) * config_.bucket_s;
  // Per-(job, op) node samples for the straggler scan, and per-job
  // totals for the trend/burst series, folded in one pass.
  struct JobOpSamples {
    std::vector<NodeSample> nodes;
  };
  std::map<std::pair<std::uint64_t, std::string>, JobOpSamples> by_job_op;
  struct JobTotals {
    std::uint64_t events = 0;
    std::uint64_t write_count = 0;
    double write_dur = 0.0;
  };
  std::map<std::uint64_t, JobTotals> totals;
  if (it != pending_.end()) {
    for (const auto& [key, agg] : it->second) {
      if (agg.count == 0) continue;
      by_job_op[{key.job, key.op}].nodes.push_back(
          {key.node, agg.dur_sum / static_cast<double>(agg.count), agg.count});
      JobTotals& t = totals[key.job];
      t.events += agg.count;
      if (key.op == "write") {
        t.write_count += agg.count;
        t.write_dur += agg.dur_sum;
      }
    }
  }

  for (const auto& [job_op, samples] : by_job_op) {
    for (const StragglerFinding& f :
         find_stragglers(samples.nodes, config_.straggler)) {
      Observation o;
      o.kind = AlertKind::kStraggler;
      o.job = std::to_string(job_op.first);
      o.node = f.node;
      o.op = job_op.second;
      o.anomalous = true;
      o.severity = f.z >= 2.0 * config_.straggler.z_threshold
                       ? Severity::kCritical
                       : Severity::kWarning;
      o.bucket = bucket_start;
      o.evidence.z = f.z;
      o.evidence.node_mean = f.node_mean;
      o.evidence.peer_mean = f.peer_mean;
      o.evidence.cells.push_back(std::string(kAnomalyPolicyName) + "/job=" +
                                 o.job + "/node=" + f.node + "/op=" + o.op +
                                 "@" + format_seconds(bucket_start) + "s");
      out.push_back(std::move(o));
    }
  }

  for (const auto& [job, t] : totals) {
    JobSeries& series = jobs_[job];
    // Slowdown trend over the job's per-bucket mean write duration.
    // Gap buckets (no writes) neither extend nor reset the series.
    if (t.write_count > 0) {
      series.write_means.push_back(t.write_dur /
                                   static_cast<double>(t.write_count));
      while (series.write_means.size() > config_.trend_window) {
        series.write_means.pop_front();
      }
      if (series.write_means.size() >= config_.trend_min_points) {
        const std::vector<double> y(series.write_means.begin(),
                                    series.write_means.end());
        const TrendFit fit = fit_trend(y);
        const double rise = trend_relative_rise(fit);
        if (fit.valid && fit.slope > 0.0 && rise >= config_.trend_rise &&
            fit.r2 >= config_.trend_r2) {
          Observation o;
          o.kind = AlertKind::kSlowdown;
          o.job = std::to_string(job);
          o.op = "write";
          o.anomalous = true;
          o.severity = rise >= 2.0 * config_.trend_rise ? Severity::kCritical
                                                        : Severity::kWarning;
          o.bucket = bucket_start;
          o.evidence.slope = fit.slope;
          o.evidence.rel_rise = rise;
          o.evidence.r2 = fit.r2;
          o.evidence.cells.push_back(
              std::string(kAnomalyPolicyName) + "/job=" + o.job +
              "/op=write@" + format_seconds(bucket_start) + "s");
          out.push_back(std::move(o));
        }
      }
    }
    // Burst: this bucket's event rate vs the EWMA of earlier buckets.
    const double rate = static_cast<double>(t.events) / config_.bucket_s;
    const BurstDecision burst = judge_burst(series.rate, rate, config_.burst);
    if (burst.fired) {
      Observation o;
      o.kind = AlertKind::kBurst;
      o.job = std::to_string(job);
      o.anomalous = true;
      o.severity = burst.ewma > 0.0 &&
                           burst.rate > 2.0 * config_.burst.factor * burst.ewma
                       ? Severity::kCritical
                       : Severity::kWarning;
      o.bucket = bucket_start;
      o.evidence.rate = burst.rate;
      o.evidence.ewma = burst.ewma;
      o.evidence.cells.push_back(std::string(kAnomalyPolicyName) + "/job=" +
                                 o.job + "@" + format_seconds(bucket_start) +
                                 "s");
      out.push_back(std::move(o));
    }
  }
}

std::vector<Alert> AnomalyEngine::alerts(std::string_view job,
                                         bool include_pending) const {
  const util::LockGuard lock(alerts_m_);
  return manager_.snapshot(job, include_pending);
}

AnomalyStats AnomalyEngine::stats() const {
  AnomalyStats s;
  s.cells = cells_.load(std::memory_order_relaxed);
  s.late_cells = late_cells_.load(std::memory_order_relaxed);
  s.buckets_evaluated = buckets_evaluated_.load(std::memory_order_relaxed);
  s.observations = observations_.load(std::memory_order_relaxed);
  const util::LockGuard lock(alerts_m_);
  s.alerts_fired = manager_.total_fired();
  s.alerts_resolved = manager_.total_resolved();
  s.alerts_firing = manager_.firing();
  return s;
}

std::string AnomalyEngine::alerts_json(std::string_view job) const {
  json::Writer w;
  w.begin_object();
  const util::LockGuard lock(alerts_m_);
  w.member("firing", static_cast<std::uint64_t>(manager_.firing()));
  w.member("active", static_cast<std::uint64_t>(manager_.active()));
  w.member("total_fired", manager_.total_fired());
  w.member("total_resolved", manager_.total_resolved());
  if (!job.empty()) w.member("job", job);
  w.key("alerts");
  manager_.write_json(w, job);
  w.end_object();
  return w.take();
}

std::string AnomalyEngine::status_json() const {
  const AnomalyStats s = stats();
  json::Writer w;
  w.begin_object();
  w.member("attached", rollup_ != nullptr);
  w.member("bucket_s", config_.bucket_s);
  {
    const util::LockGuard lock(state_m_);
    double frontier = std::numeric_limits<double>::infinity();
    bool all = !shard_watermark_.empty();
    for (std::size_t i = 0; i < shard_watermark_.size(); ++i) {
      if (!shard_sealed_[i]) all = false;
      frontier = std::min(frontier, shard_watermark_[i]);
    }
    w.key("frontier");
    if (all) {
      w.value_double(frontier);
    } else {
      w.value_null();
    }
    w.key("evaluated_bucket");
    if (evaluated_bucket_ != std::numeric_limits<std::int64_t>::min()) {
      w.value_int(evaluated_bucket_);
    } else {
      w.value_null();
    }
    w.member("pending_buckets", static_cast<std::uint64_t>(pending_.size()));
    w.member("jobs_tracked", static_cast<std::uint64_t>(jobs_.size()));
  }
  w.member("cells", s.cells);
  w.member("late_cells", s.late_cells);
  w.member("buckets_evaluated", s.buckets_evaluated);
  w.member("observations", s.observations);
  w.key("alerts");
  w.begin_object();
  w.member("firing", static_cast<std::uint64_t>(s.alerts_firing));
  w.member("fired", s.alerts_fired);
  w.member("resolved", s.alerts_resolved);
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace dlc::anomaly
