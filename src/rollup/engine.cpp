#include "rollup/engine.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "json/writer.hpp"
#include "util/clock.hpp"

namespace dlc::rollup {

namespace {

std::size_t dim_index(std::string_view name) {
  for (std::size_t i = 0; i < kRollupDimCount; ++i) {
    if (name == kRollupDims[i]) return i;
  }
  throw std::logic_error("rollup: unknown dimension " + std::string(name));
}

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

struct RollupEngine::ShardSink final : dsos::CommitSink {
  ShardSink(RollupEngine* e, std::size_t s) : engine(e), shard(s) {}
  void on_insert(const dsos::Object& obj) override {
    engine->on_insert(shard, obj);
  }
  bool on_commit() override {
    engine->on_commit(shard);
    return true;
  }
  RollupEngine* engine;
  std::size_t shard;
};

RollupEngine::RollupEngine(RollupEngineConfig config)
    : policies_(config.policies), config_(std::move(config)) {
  if (policies_.empty()) {
    throw std::invalid_argument("rollup: engine needs at least one policy");
  }
  if (config_.store_mode != store::StoreMode::kMemory && config_.dir.empty()) {
    throw std::invalid_argument(
        "rollup: durable spill log needs a directory");
  }
  cell_schema_ = rollup_cell_schema();
  compiled_.reserve(policies_.size());
  for (const PolicyConfig& p : policies_) {
    CompiledPolicy c;
    c.key_job = p.has_key("job_id");
    c.key_producer = p.has_key("ProducerName");
    c.key_rank = p.has_key("rank");
    c.key_op = p.has_key("op");
    c.key_module = p.has_key("module");
    for (const MatchClause& clause : p.match) {
      CompiledPolicy::Clause cc;
      cc.dim = static_cast<std::uint8_t>(dim_index(clause.attr));
      for (const std::string& v : clause.values) {
        // parse_rollup_policies already type-checks these, but configs
        // can also be built programmatically — reject rather than
        // compile a garbage value into a clause that matches job/rank 0.
        if (clause.attr == "job_id") {
          std::uint64_t n = 0;
          const auto [ptr, ec] =
              std::from_chars(v.data(), v.data() + v.size(), n);
          if (ec != std::errc() || ptr != v.data() + v.size()) {
            throw std::invalid_argument("rollup: policy '" + p.name +
                                        "' has non-uint64 job_id match '" +
                                        v + "'");
          }
          cc.u64s.push_back(n);
        } else if (clause.attr == "rank") {
          std::int64_t n = 0;
          const auto [ptr, ec] =
              std::from_chars(v.data(), v.data() + v.size(), n);
          if (ec != std::errc() || ptr != v.data() + v.size()) {
            throw std::invalid_argument("rollup: policy '" + p.name +
                                        "' has non-int64 rank match '" + v +
                                        "'");
          }
          cc.i64s.push_back(n);
        } else {
          cc.strs.push_back(v);
        }
      }
      c.clauses.push_back(std::move(cc));
    }
    compiled_.push_back(std::move(c));
  }
  obs::Registry& reg = obs::Registry::global();
  m_events_ = &reg.counter("dlc.rollup.events");
  m_late_ = &reg.counter("dlc.rollup.late_dropped");
  m_sealed_rows_ = &reg.counter("dlc.rollup.sealed_rows");
  m_spills_ = &reg.counter("dlc.rollup.spills");
  m_cells_open_ = &reg.gauge("dlc.rollup.cells_open");
  m_query_ns_ = &reg.histogram("dlc.rollup.query_ns");
}

RollupEngine::~RollupEngine() { detach(); }

const PolicyConfig* RollupEngine::find_policy(std::string_view name) const {
  for (const PolicyConfig& p : policies_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

RollupRecovery RollupEngine::attach(dsos::DsosCluster& raw) {
  if (raw_ == &raw) return recovery_;
  if (raw_ != nullptr) {
    throw std::logic_error(
        "rollup: engine already attached to a different cluster");
  }
  recovery_ = RollupRecovery{};
  // Sealed cells and frontiers recovered from the spill log.
  std::vector<std::vector<CellStore>> restored(
      raw.shard_count(), std::vector<CellStore>(policies_.size()));
  if (config_.store_mode != store::StoreMode::kMemory) {
    // Each row is decoded once, here.  One that does not decode would
    // vanish from every panel while its watermark still holds its
    // events behind the frontier, so recovery fails instead.
    const auto restore = [&](std::size_t, store::WalReplay& wal) {
      for (const dsos::Object& row : wal.rows) {
        if (row.schema->name() != "rollup_cell") continue;
        RollupCell cell;
        std::uint64_t shard = 0;
        double watermark = 0;
        const bool ok = row_to_cell(row, cell, shard, watermark);
        if (!ok || shard >= restored.size()) {
          throw std::runtime_error(
              "rollup: recovered row of policy '" + cell.policy +
              "' on shard " + std::to_string(shard) +
              (ok ? " names a shard the raw cluster lacks"
                  : " does not decode"));
        }
        ++recovery_.sealed_rows;
        const PolicyConfig* p = find_policy(cell.policy);
        if (p == nullptr) continue;
        CellStore& cs =
            restored[shard][static_cast<std::size_t>(p - policies_.data())];
        const auto [it, fresh] = cs.sealed.try_emplace(cell.key, cell.agg);
        if (!fresh) it->second.merge(cell.agg);
        cs.watermark = std::max(cs.watermark, watermark);
      }
    };
    recovery_.store =
        spill_log_.open(config_.dir, /*create_dir=*/true, 1, restore);
  }
  shards_.clear();
  for (std::size_t s = 0; s < raw.shard_count(); ++s) {
    auto sh = std::make_unique<ShardState>();
    sh->sink = std::make_unique<ShardSink>(this, s);
    {
      const util::LockGuard lock(sh->m);
      sh->cells = std::move(restored[s]);
    }
    shards_.push_back(std::move(sh));
  }
  raw_ = &raw;

  // Rebuild the unsealed tail: replay the recovered raw cluster in
  // original per-shard insertion (slot) order — the same accumulation
  // order an uninterrupted run used — letting the frontier check skip
  // every event already represented by a sealed row.
  replaying_ = true;
  for (std::size_t s = 0; s < raw.shard_count(); ++s) {
    const dsos::Container& c = raw.shard(s).container();
    for (std::size_t slot = 0; slot < c.size(); ++slot) {
      on_insert(s, c.object(slot));
      ++recovery_.replayed_events;
    }
    on_commit(s);
  }
  replaying_ = false;

  for (std::size_t s = 0; s < raw.shard_count(); ++s) {
    raw.shard(s).container().add_observer(shards_[s]->sink.get());
  }
  return recovery_;
}

void RollupEngine::detach() {
  if (raw_ != nullptr) {
    for (std::size_t s = 0; s < raw_->shard_count(); ++s) {
      raw_->shard(s).container().remove_observer(shards_[s]->sink.get());
    }
    raw_ = nullptr;
  }
  spill_log_.close();
}

std::size_t RollupEngine::arm_from_plan(const relia::FaultPlan& plan) {
  return spill_log_.is_open() ? spill_log_.faults().arm_from_plan(plan) : 0;
}

const RollupEngine::AttrIds& RollupEngine::resolve_ids(
    ShardState& sh, const dsos::Object& obj) {
  const dsos::Schema* schema = obj.schema.get();
  if (schema == sh.cached_schema) return sh.ids;
  AttrIds ids;
  const auto find = [&](const char* name, dsos::AttrType type,
                        std::size_t& slot) {
    const auto id = schema->find_attr(name);
    if (!id || schema->attrs()[*id].type != type) return false;
    slot = *id;
    return true;
  };
  using dsos::AttrType;
  ids.valid = find("job_id", AttrType::kUint64, ids.job) &&
              find("ProducerName", AttrType::kString, ids.producer) &&
              find("rank", AttrType::kInt64, ids.rank) &&
              find("op", AttrType::kString, ids.op) &&
              find("module", AttrType::kString, ids.module) &&
              find("seg_len", AttrType::kInt64, ids.seg_len) &&
              find("seg_dur", AttrType::kDouble, ids.seg_dur) &&
              find("seg_timestamp", AttrType::kTimestamp, ids.seg_ts);
  sh.ids = ids;
  sh.cached_schema = schema;
  return sh.ids;
}

bool RollupEngine::matches_policy(std::size_t policy, const dsos::Object& obj,
                                  const AttrIds& ids) const {
  for (const CompiledPolicy::Clause& clause : compiled_[policy].clauses) {
    bool hit = false;
    switch (clause.dim) {
      case 0: {  // job_id
        const auto v = std::get<std::uint64_t>(obj.values[ids.job]);
        hit = std::find(clause.u64s.begin(), clause.u64s.end(), v) !=
              clause.u64s.end();
        break;
      }
      case 1: {  // ProducerName
        const auto& v = std::get<std::string>(obj.values[ids.producer]);
        hit = std::find(clause.strs.begin(), clause.strs.end(), v) !=
              clause.strs.end();
        break;
      }
      case 2: {  // rank
        const auto v = std::get<std::int64_t>(obj.values[ids.rank]);
        hit = std::find(clause.i64s.begin(), clause.i64s.end(), v) !=
              clause.i64s.end();
        break;
      }
      case 3: {  // op
        const auto& v = std::get<std::string>(obj.values[ids.op]);
        hit = std::find(clause.strs.begin(), clause.strs.end(), v) !=
              clause.strs.end();
        break;
      }
      default: {  // module
        const auto& v = std::get<std::string>(obj.values[ids.module]);
        hit = std::find(clause.strs.begin(), clause.strs.end(), v) !=
              clause.strs.end();
        break;
      }
    }
    if (!hit) return false;
  }
  return true;
}

void RollupEngine::on_insert(std::size_t shard, const dsos::Object& obj) {
  if (crashed()) return;
  ShardState& sh = *shards_[shard];
  const AttrIds& ids = resolve_ids(sh, obj);
  if (!ids.valid) return;
  const double ts = std::get<double>(obj.values[ids.seg_ts]);
  bool folded = false;
  {
    const util::LockGuard lock(sh.m);
    for (std::size_t p = 0; p < policies_.size(); ++p) {
      if (!matches_policy(p, obj, ids)) continue;
      CellStore& cs = sh.cells[p];
      const double width = policies_[p].bucket_s;
      const auto bucket = static_cast<std::int64_t>(std::floor(ts / width));
      if (static_cast<double>(bucket + 1) * width <= cs.watermark) {
        // Behind the sealed frontier: the bucket's cell is immutable.
        // During the attach() replay this is the expected skip of
        // events a sealed row already covers, not a loss.
        if (!replaying_) {
          late_dropped_.fetch_add(1, std::memory_order_relaxed);
          if (obs::enabled()) m_late_->add(1);
        }
        continue;
      }
      CellKey key;
      key.bucket = bucket;
      const CompiledPolicy& cp = compiled_[p];
      if (cp.key_job) key.job = std::get<std::uint64_t>(obj.values[ids.job]);
      if (cp.key_producer) {
        key.producer = std::get<std::string>(obj.values[ids.producer]);
      }
      if (cp.key_rank) key.rank = std::get<std::int64_t>(obj.values[ids.rank]);
      if (cp.key_op) key.op = std::get<std::string>(obj.values[ids.op]);
      if (cp.key_module) {
        key.module = std::get<std::string>(obj.values[ids.module]);
      }
      cs.open[std::move(key)].add(
          std::get<std::int64_t>(obj.values[ids.seg_len]),
          std::get<double>(obj.values[ids.seg_dur]));
      cs.max_ts = std::max(cs.max_ts, ts);
      folded = true;
    }
  }
  if (folded && !replaying_) {
    events_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) m_events_->add(1);
  }
}

void RollupEngine::on_commit(std::size_t shard, bool seal_everything) {
  if (crashed()) return;
  ShardState& sh = *shards_[shard];
  std::vector<SealBatch> batches;
  std::size_t open_cells = 0;
  {
    const util::LockGuard lock(sh.m);
    for (std::size_t p = 0; p < policies_.size(); ++p) {
      CellStore& cs = sh.cells[p];
      const double width = policies_[p].bucket_s;
      // A bucket is ripe once it ends at or before the frontier.
      const double frontier = seal_everything
                                  ? std::numeric_limits<double>::infinity()
                                  : cs.max_ts - policies_[p].grace();
      if (frontier > cs.watermark) {
        SealBatch batch;
        batch.policy = p;
        double last_end = cs.watermark;
        for (auto it = cs.open.begin(); it != cs.open.end();) {
          const double end = static_cast<double>(it->first.bucket + 1) * width;
          if (end > frontier) {
            ++it;
            continue;
          }
          last_end = std::max(last_end, end);
          auto cell = cs.open.extract(it++);
          batch.cells.emplace_back(cell.key(), cell.mapped());
          cs.sealed.emplace(std::move(cell.key()), std::move(cell.mapped()));
        }
        if (!batch.cells.empty()) {
          // The watermark only advances with a batch to spill, so
          // recovery's frontier always matches the rows on disk.
          cs.watermark = seal_everything ? last_end : frontier;
          batch.watermark = cs.watermark;
          batches.push_back(std::move(batch));
        }
      }
      open_cells += cs.open.size();
    }
  }
  sh.open_count.store(open_cells, std::memory_order_relaxed);
  if (obs::enabled()) {
    // Publish the engine-wide total (what stats()/status_json() report),
    // summed from the per-shard commit-time counts — a true gauge that
    // falls as buckets seal, not a per-shard high watermark.
    std::uint64_t total = 0;
    for (const auto& other : shards_) {
      total += other->open_count.load(std::memory_order_relaxed);
    }
    m_cells_open_->set(static_cast<std::int64_t>(total));
  }
  for (SealBatch& batch : batches) {
    std::sort(batch.cells.begin(), batch.cells.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Observers see the batch only once its rows are durable, with no
    // engine lock held.  A failed spill has deadened the engine.
    if (!spill(shard, batch)) return;
    notify_sealed(shard, batch);
  }
}

bool RollupEngine::spill(std::size_t shard, const SealBatch& batch) {
  if (spill_log_.is_open()) {
    const PolicyConfig& policy = policies_[batch.policy];
    std::vector<dsos::Object> rows;
    rows.reserve(batch.cells.size());  // the group's pointers stay valid
    std::vector<const dsos::Object*> group;
    group.reserve(batch.cells.size());
    for (const auto& [key, agg] : batch.cells) {
      group.push_back(&rows.emplace_back(
          cell_to_row(cell_schema_, policy.name, key, policy.bucket_s, agg,
                      shard, batch.watermark)));
    }
    // A group that does not land has killed the log, and with it the
    // engine (crashed()).
    if (!spill_log_.commit(0, group)) return false;
  }
  sealed_rows_.fetch_add(batch.cells.size(), std::memory_order_relaxed);
  spills_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    m_sealed_rows_->add(batch.cells.size());
    m_spills_->add(1);
  }
  return true;
}

void RollupEngine::add_seal_observer(SealObserver* observer) {
  const util::LockGuard lock(observers_m_);
  if (std::find(observers_.begin(), observers_.end(), observer) ==
      observers_.end()) {
    observers_.push_back(observer);
  }
}

void RollupEngine::remove_seal_observer(SealObserver* observer) {
  const util::LockGuard lock(observers_m_);
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

void RollupEngine::notify_sealed(std::size_t shard, const SealBatch& batch) {
  std::vector<SealObserver*> observers;
  {
    const util::LockGuard lock(observers_m_);
    if (observers_.empty()) return;
    observers = observers_;
  }
  const std::string_view policy = policies_[batch.policy].name;
  for (SealObserver* o : observers) {
    o->on_sealed(policy, shard, batch.watermark, batch.cells);
  }
}

void RollupEngine::flush() {
  for (std::size_t s = 0; s < shards_.size(); ++s) on_commit(s);
}

void RollupEngine::seal_all() {
  for (std::size_t s = 0; s < shards_.size(); ++s) on_commit(s, true);
}

std::vector<RollupCell> RollupEngine::query(std::string_view policy,
                                            const RollupQuery& q) const {
  const std::uint64_t t0 = util::now_ns();
  const PolicyConfig* p = find_policy(policy);
  if (p == nullptr) {
    throw std::invalid_argument("rollup: unknown policy " +
                                std::string(policy));
  }
  const auto pidx = static_cast<std::size_t>(p - policies_.data());
  const double width = p->bucket_s;
  double out_w = width;
  std::int64_t factor = 1;
  if (q.bucket_s > 0) {
    const double f = q.bucket_s / width;
    factor = std::llround(f);
    if (factor < 1 || std::abs(f - static_cast<double>(factor)) > 1e-9) {
      throw std::invalid_argument(
          "rollup: query bucket_s must be an integer multiple of the "
          "policy bucket");
    }
    out_w = q.bucket_s;
  }
  const auto pass = [&](const CellKey& key) {
    if (!q.jobs.empty() && std::find(q.jobs.begin(), q.jobs.end(), key.job) ==
                               q.jobs.end()) {
      return false;
    }
    if (!q.ops.empty() &&
        std::find(q.ops.begin(), q.ops.end(), key.op) == q.ops.end()) {
      return false;
    }
    if (!q.producer.empty() && key.producer != q.producer) return false;
    if (q.rank && *q.rank != key.rank) return false;
    const double start = static_cast<double>(key.bucket) * width;
    return start >= q.from_s && start < q.to_s;
  };

  // One contribution per (fine key, shard): a cell is open or sealed,
  // never both, because events behind the watermark drop.  Open cells
  // keep folding, so they are copied under the shard's lock; sealed
  // ones never change or leave their map, so they are read in place.
  // Sorting by key fields, then fine bucket, then shard gives the
  // canonical fold order, so the floating-point sums are independent
  // of how much has sealed.
  struct Ref {
    const CellKey* key;
    std::size_t shard;
    const CellAgg* agg;
  };
  std::vector<Ref> refs;
  std::deque<std::pair<CellKey, CellAgg>> open_copies;
  std::vector<std::uint64_t> jobs = q.jobs;
  std::sort(jobs.begin(), jobs.end());
  jobs.erase(std::unique(jobs.begin(), jobs.end()), jobs.end());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardState& sh = *shards_[s];
    const util::LockGuard lock(sh.m);
    const CellStore& cs = sh.cells[pidx];
    for (const auto& [key, agg] : cs.open) {
      if (!pass(key)) continue;
      const auto& [k, a] = open_copies.emplace_back(key, agg);
      refs.push_back({&k, s, &a});
    }
    const auto take = [&](const auto& cell) {
      if (pass(cell.first)) refs.push_back({&cell.first, s, &cell.second});
    };
    if (jobs.empty()) {
      for (const auto& cell : cs.sealed) take(cell);
      continue;
    }
    constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
    for (const std::uint64_t job : jobs) {
      // The least key of `job`; its sealed cells follow contiguously.
      const CellKey first{job, "", kMin, "", "", kMin};
      for (auto it = cs.sealed.lower_bound(first);
           it != cs.sealed.end() && it->first.job == job; ++it) {
        take(*it);
      }
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return std::tie(*a.key, a.shard) < std::tie(*b.key, b.shard);
  });

  // Re-bucketing keeps equal coarse keys adjacent: within one key
  // prefix the fine buckets ascend, and floor_div is monotone.
  std::vector<RollupCell> out;
  for (const Ref& ref : refs) {
    CellKey key = *ref.key;
    if (factor > 1) key.bucket = floor_div(key.bucket, factor);
    if (out.empty() || out.back().key != key) {
      RollupCell& cell = out.emplace_back();
      cell.policy = std::string(policy);
      cell.key = std::move(key);
      cell.bucket_start = static_cast<double>(cell.key.bucket) * out_w;
      cell.bucket_w = out_w;
    }
    out.back().agg.merge(*ref.agg);
  }
  if (obs::enabled()) m_query_ns_->record(util::now_ns() - t0);
  return out;
}

RollupStats RollupEngine::stats() const {
  RollupStats st;
  st.events = events_.load(std::memory_order_relaxed);
  st.late_dropped = late_dropped_.load(std::memory_order_relaxed);
  for (const auto& sh : shards_) {
    const util::LockGuard lock(sh->m);
    for (const CellStore& cs : sh->cells) st.cells_open += cs.open.size();
  }
  st.sealed_rows = sealed_rows_.load(std::memory_order_relaxed);
  st.spills = spills_.load(std::memory_order_relaxed);
  return st;
}

std::string RollupEngine::status_json() const {
  const RollupStats st = stats();
  json::Writer w;
  w.begin_object();
  w.member("events", st.events);
  w.member("late_dropped", st.late_dropped);
  w.member("cells_open", st.cells_open);
  w.member("sealed_rows", st.sealed_rows);
  w.member("spills", st.spills);
  w.member("crashed", crashed());
  w.member("store_mode",
           store_mode_name(config_.store_mode));
  w.key("policies");
  w.begin_array();
  for (std::size_t p = 0; p < policies_.size(); ++p) {
    const PolicyConfig& policy = policies_[p];
    std::size_t cells = 0;
    for (const auto& sh : shards_) {
      const util::LockGuard lock(sh->m);
      cells += sh->cells[p].open.size();
    }
    w.begin_object();
    w.member("name", policy.name);
    w.member("spec", to_string(policy));
    w.member("bucket_s", policy.bucket_s);
    w.member("grace_s", policy.grace());
    w.key("keys");
    w.begin_array();
    for (const std::string& k : policy.keys) w.value_string(k);
    w.end_array();
    w.member("cells_open", static_cast<std::uint64_t>(cells));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace dlc::rollup
