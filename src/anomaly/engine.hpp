// Online anomaly engine: streaming run-time diagnosis riding the rollup
// seal path (DESIGN.md §11).
//
// The paper's pitch is diagnosis *during* the run, not from logs after
// it.  The dashboards (Fig. 5–9) already render live rollups; this
// stage closes the loop by evaluating each sealed time bucket the
// moment it becomes durable and turning the paper's visual diagnoses
// into first-class alerts:
//
//   straggler — one node's mean I/O duration sits far outside the job's
//               cross-node distribution (what Fig. 6 shows a human);
//   slowdown  — a job's per-bucket mean write duration trends upward
//               across recent buckets (Fig. 8's degrading writes);
//   burst     — a job's event rate jumps past its smoothed history.
//
// Data path: AnomalyEngine registers as a rollup::SealObserver and
// consumes seal batches of its dedicated source policy
// (`anomaly_node`: key=job_id,ProducerName,op, 10 s buckets, read|write
// only — appended to the policy list by whoever enables anomaly
// detection).  Batches arrive per shard; the engine folds them into
// per-bucket (job, node, op) aggregates and evaluates a bucket once
// every shard's seal watermark has passed its end — the same
// watermark discipline the rollup engine itself seals on, so detection
// is deterministic and replay-stable.  Evaluation happens on the shard
// writer thread that drove the seal, with no rollup lock held.
//
// Locks (§5c): AnomalyState (bucket aggregates, watermarks, per-job
// trend/EWMA state) -> AnomalyAlerts (the AlertManager), acquired in
// that order on the seal path; read-side endpoints take only
// AnomalyAlerts or only AnomalyState.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "anomaly/alert.hpp"
#include "anomaly/detect.hpp"
#include "obs/registry.hpp"
#include "rollup/engine.hpp"
#include "util/thread_annotations.hpp"

namespace dlc::anomaly {

/// Name of the dedicated source policy (DESIGN.md §11a).
inline constexpr std::string_view kAnomalyPolicyName = "anomaly_node";

/// Builds the source policy: key=job_id,ProducerName,op, `bucket_s`
/// buckets, match=op:read|write.  Append to the rollup policy list
/// before constructing the engine anomaly detection rides on.
rollup::PolicyConfig anomaly_policy(double bucket_s = 10.0);

struct AnomalyConfig {
  /// Source-policy bucket width (seconds); must match the anomaly
  /// policy of the rollup engine attach() binds to.
  double bucket_s = 10.0;
  StragglerConfig straggler;
  /// Trend window: sealed buckets of per-job mean write duration.
  std::size_t trend_window = 12;
  std::size_t trend_min_points = 6;
  /// Projected relative rise across the window to flag a slowdown.
  double trend_rise = 0.5;
  /// Minimum fit quality (r^2) — noise does not trend.
  double trend_r2 = 0.5;
  BurstConfig burst;
  AlertManagerConfig alerts;
};

struct AnomalyStats {
  std::uint64_t cells = 0;             // sealed cells folded
  std::uint64_t late_cells = 0;        // behind the evaluated frontier
  std::uint64_t buckets_evaluated = 0;
  std::uint64_t observations = 0;      // detector verdicts emitted
  std::uint64_t alerts_fired = 0;
  std::uint64_t alerts_resolved = 0;
  std::size_t alerts_firing = 0;
};

class AnomalyEngine : public rollup::SealObserver {
 public:
  explicit AnomalyEngine(AnomalyConfig config = {});
  ~AnomalyEngine() override;

  AnomalyEngine(const AnomalyEngine&) = delete;
  AnomalyEngine& operator=(const AnomalyEngine&) = delete;

  /// Binds to `engine`: validates the source policy exists with the
  /// configured bucket width (std::invalid_argument otherwise), records
  /// the shard count for the watermark frontier and registers this
  /// engine as a seal observer.  Call after RollupEngine::attach() so
  /// recovery-replay seals are not re-evaluated.
  void attach(rollup::RollupEngine& engine);

  /// Unregisters the observer.  Idempotent; called by the destructor.
  void detach();
  bool attached() const { return rollup_ != nullptr; }

  /// rollup::SealObserver — the streaming ingest path.  Thread-safe.
  void on_sealed(std::string_view policy, std::size_t shard,
                 double watermark,
                 const std::vector<std::pair<rollup::CellKey,
                                             rollup::CellAgg>>& cells) override;

  const AnomalyConfig& config() const { return config_; }

  /// Alert snapshot, firing first (see AlertManager::snapshot).
  std::vector<Alert> alerts(std::string_view job = {},
                            bool include_pending = false) const;

  AnomalyStats stats() const;

  /// /api/anomalies payload: counts + the alert array (job-filtered
  /// when `job` is non-empty).
  std::string alerts_json(std::string_view job = {}) const;
  /// Engine status for /api/anomalies' `engine` member and tests:
  /// frontier, evaluated bucket, fold counters.
  std::string status_json() const;

 private:
  /// Per-bucket fold of one (job, node, op) cell.
  struct SeriesAgg {
    std::uint64_t count = 0;
    double dur_sum = 0.0;
  };
  struct SeriesKey {
    std::uint64_t job = 0;
    std::string node;
    std::string op;
    bool operator<(const SeriesKey& o) const {
      if (job != o.job) return job < o.job;
      if (node != o.node) return node < o.node;
      return op < o.op;
    }
  };
  /// Per-job carry-over state across evaluated buckets.
  struct JobSeries {
    std::deque<double> write_means;  // newest last, <= trend_window
    Ewma rate;
  };

  void evaluate_bucket(std::int64_t bucket, std::vector<Observation>& out)
      DLC_REQUIRES(state_m_);

  AnomalyConfig config_;
  rollup::RollupEngine* rollup_ = nullptr;

  mutable util::Mutex state_m_{"AnomalyState"};
  /// bucket index -> per-(job, node, op) aggregates, seal-fed.
  std::map<std::int64_t, std::map<SeriesKey, SeriesAgg>> pending_
      DLC_GUARDED_BY(state_m_);
  /// Per-shard max seal watermark, -inf until the shard's first seal;
  /// the frontier is the min over ALL shards, so nothing is evaluated
  /// until every shard has sealed once (each series lives on one shard
  /// — an early frontier would see partial buckets).  A shard that
  /// never produces anomaly-policy cells therefore pins the frontier.
  /// The pipeline shards events by a hash of their rank, not round
  /// robin, so a shard can go a whole job without such cells: a traced
  /// hmmer_binary e2ebench run reports anomaly.buckets_evaluated 0.
  /// ROADMAP item 1 makes idle shards report their watermark.
  std::vector<double> shard_watermark_ DLC_GUARDED_BY(state_m_);
  std::vector<bool> shard_sealed_ DLC_GUARDED_BY(state_m_);
  /// Highest bucket index already evaluated (cells at or below are late).
  std::int64_t evaluated_bucket_ DLC_GUARDED_BY(state_m_) =
      std::numeric_limits<std::int64_t>::min();
  std::map<std::uint64_t, JobSeries> jobs_ DLC_GUARDED_BY(state_m_);

  mutable util::Mutex alerts_m_{"AnomalyAlerts"};
  AlertManager manager_ DLC_GUARDED_BY(alerts_m_);
  /// Manager totals already mirrored into the obs counters.
  std::uint64_t published_fired_ DLC_GUARDED_BY(alerts_m_) = 0;
  std::uint64_t published_resolved_ DLC_GUARDED_BY(alerts_m_) = 0;

  // atomic-protocol: kind=counter pairs=AnomalyEngine::stats
  std::atomic<std::uint64_t> cells_{0};
  // atomic-protocol: kind=counter pairs=AnomalyEngine::stats
  std::atomic<std::uint64_t> late_cells_{0};
  // atomic-protocol: kind=counter pairs=AnomalyEngine::stats
  std::atomic<std::uint64_t> buckets_evaluated_{0};
  // atomic-protocol: kind=counter pairs=AnomalyEngine::stats
  std::atomic<std::uint64_t> observations_{0};

  // Pre-resolved dlc.anomaly.* instruments (nullptr when obs is off).
  obs::Counter* m_cells_ = nullptr;
  obs::Counter* m_late_ = nullptr;
  obs::Counter* m_buckets_ = nullptr;
  obs::Counter* m_fired_ = nullptr;
  obs::Counter* m_resolved_ = nullptr;
  obs::Gauge* m_firing_ = nullptr;
  obs::LogHistogram* m_eval_ns_ = nullptr;
};

}  // namespace dlc::anomaly
