#include "exp/pipeline.hpp"

#include <map>
#include <stdexcept>

#include "exp/system_sampler.hpp"
#include "ldms/fault_inject.hpp"
#include "ldms/metrics.hpp"
#include "relia/seq.hpp"
#include "sim/engine.hpp"
#include "util/cpu.hpp"

namespace dlc::exp {

RunResult run_experiment(const ExperimentSpec& spec) {
  if (!spec.workload) {
    throw std::invalid_argument("experiment spec has no workload");
  }
  // The connector's plain-string knobs fail loudly: a typo must not
  // silently leave the writers unpinned or the fast path on.
  util::PinPolicy pin_policy;
  if (!util::parse_pin_policy(spec.connector.pin, pin_policy)) {
    throw std::invalid_argument("bad connector.pin: \"" + spec.connector.pin +
                                "\"");
  }
  const std::string& fastpath = spec.connector.fastpath;
  if (fastpath != "auto" && fastpath != "on" && fastpath != "off") {
    throw std::invalid_argument("bad connector.fastpath: \"" + fastpath +
                                "\"");
  }

  sim::Engine engine;
  simhpc::Cluster cluster(spec.cluster);
  if (spec.node_count > cluster.node_count()) {
    throw std::invalid_argument("job larger than cluster");
  }

  // File system with campaign-epoch weather and any scripted incidents.
  auto variability = std::make_shared<simfs::VariabilityProcess>(
      spec.variability, spec.epoch_seed);
  for (const auto& incident : spec.incidents) {
    variability->add_incident(incident);
  }
  // `ioslow` fault directives become node-scoped variability incidents:
  // the FS sees the slowdown, the transport never does.  Node names
  // resolve against the job's allocation (node n of the job runs on
  // cluster node n — jcfg.first_node is 0 — and is sampled by the
  // daemon named cluster.node_name(n)); "*" hits every node.
  for (const relia::FaultEvent& e : spec.fault_plan.events) {
    if (e.kind == relia::FaultKind::kStoreCrash) {
      // Nothing here arms a log from the plan (the rollup spill's
      // included): a caller arms the store or engine it builds itself.
      throw std::invalid_argument(
          "fault plan storecrash arms no store in run_experiment: " +
          relia::to_string(e));
    }
    if (e.kind != relia::FaultKind::kIoSlow) continue;
    simfs::Incident inc;
    inc.start = e.at;
    inc.end = e.at + e.duration;
    inc.peak_factor = e.factor;
    inc.ramp = e.ramp;
    if (e.op == "read") {
      inc.applies_to = simfs::OpClass::kRead;
    } else if (e.op == "write") {
      inc.applies_to = simfs::OpClass::kWrite;
    } else if (e.op == "meta") {
      inc.applies_to = simfs::OpClass::kMetadata;
    }
    if (e.daemon != "*") {
      inc.node = -1;
      for (std::size_t n = 0; n < spec.node_count; ++n) {
        if (cluster.node_name(n) == e.daemon) {
          inc.node = static_cast<int>(n);
          break;
        }
      }
      if (inc.node < 0) {
        throw std::invalid_argument("fault plan ioslow names unknown node: " +
                                    relia::to_string(e));
      }
    }
    variability->add_incident(inc);
  }
  std::unique_ptr<simfs::FileSystem> fs;
  if (spec.fs == simfs::FsKind::kNfs) {
    fs = std::make_unique<simfs::NfsModel>(engine, spec.nfs, variability,
                                           spec.seed);
  } else {
    fs = std::make_unique<simfs::LustreModel>(engine, spec.lustre, variability,
                                              spec.seed);
  }

  simhpc::JobConfig jcfg;
  jcfg.job_id = spec.job_id;
  jcfg.node_count = spec.node_count;
  jcfg.ranks_per_node = spec.ranks_per_node;
  jcfg.seed = spec.seed;
  simhpc::Job job(engine, cluster, jcfg);

  darshan::RuntimeConfig dcfg = spec.darshan;
  dcfg.exe = spec.exe;
  darshan::Runtime runtime(engine, *fs, job, dcfg);

  // LDMS topology: one sampler daemon per allocated node, L1 aggregator on
  // the head node, L2 aggregator on the analysis cluster.  The connector's
  // delivery mode is carried onto every hop: at-least-once arms each
  // forward route with a redelivery spool.
  const bool at_least_once =
      spec.connector.delivery == relia::DeliveryMode::kAtLeastOnce;
  ldms::ForwardConfig transport = spec.transport;
  transport.delivery = spec.connector.delivery;
  if (at_least_once) transport.spool = spec.connector.spool;
  std::vector<std::unique_ptr<ldms::LdmsDaemon>> node_daemons;
  auto l1 = std::make_unique<ldms::LdmsDaemon>(&engine, "voltrino-head");
  auto l2 = std::make_unique<ldms::LdmsDaemon>(&engine, "shirley");
  const std::string& tag = spec.connector.stream_tag;
  for (std::size_t n = 0; n < spec.node_count; ++n) {
    node_daemons.push_back(std::make_unique<ldms::LdmsDaemon>(
        &engine, cluster.node_name(n)));
    node_daemons.back()->add_forward(tag, *l1, transport);
  }
  l1->add_forward(tag, *l2, transport);

  // Scripted transport faults, matched onto the topology by daemon name.
  if (!spec.fault_plan.empty()) {
    if (!spec.fault_plan.ok()) {
      throw std::invalid_argument("experiment fault plan has parse errors: " +
                                  spec.fault_plan.errors.front());
    }
    const auto unresolved = ldms::apply_fault_plan(
        spec.fault_plan, [&](const std::string& name) -> ldms::LdmsDaemon* {
          if (name == l1->name()) return l1.get();
          if (name == l2->name()) return l2.get();
          for (const auto& d : node_daemons) {
            if (d->name() == name) return d.get();
          }
          return nullptr;
        });
    if (!unresolved.empty()) {
      throw std::invalid_argument("fault plan names unknown daemon: " +
                                  relia::to_string(unresolved.front()));
    }
  }

  // Terminal consumers on the analysis cluster.
  ldms::CountingStore counting;
  counting.attach(*l2, tag);
  // Delivery accounting at the terminal aggregator: every arrival's
  // (producer, seq) is classified once — by the decoder when one is
  // attached, else by this tracker — so loss and redelivery duplicates
  // are measurable in both modes.
  relia::SequenceTracker l2_tracker;
  if (!spec.decode_to_dsos) {
    l2->bus().subscribe(tag, [&l2_tracker](const ldms::StreamMessage& msg) {
      l2_tracker.observe(msg.producer, msg.seq);
    });
  }
  if (spec.live_subscriber) {
    l2->bus().subscribe(tag, spec.live_subscriber);
  }
  std::shared_ptr<dsos::DsosCluster> dsos_cluster;
  std::unique_ptr<dsos::IngestExecutor> ingest;
  std::unique_ptr<core::DarshanDecoder> decoder;
  std::shared_ptr<obs::TraceCollector> traces;
  if (spec.decode_to_dsos) {
    if (spec.shared_dsos) {
      dsos_cluster = spec.shared_dsos;
    } else {
      dsos::ClusterConfig ccfg;
      ccfg.shard_count = spec.dsos_shards;
      ccfg.shard_attr = "rank";
      ccfg.parallel_query = true;
      dsos_cluster = std::make_shared<dsos::DsosCluster>(ccfg);
    }
    // Sharded insertion: connector.ingest_threads workers, or inline on
    // the decode thread with 0.  The workers are real threads like
    // ThreadedForwarder's; virtual time stays deterministic because
    // results are drained before any query.  Writer placement
    // (connector.pin) resolves to concrete CPUs here; the executor only
    // takes numbers.
    dsos::IngestConfig icfg;
    icfg.workers = spec.connector.ingest_threads;
    icfg.pin_cpus = util::resolve_pin_cpus(pin_policy);
    ingest = std::make_unique<dsos::IngestExecutor>(*dsos_cluster, icfg);
    if (spec.connector.trace_sample_n > 0) {
      // Trace completion sink (connector.trace_sample_n): the executor
      // finishes sampled spans at commit.
      traces = std::make_shared<obs::TraceCollector>();
      ingest->set_trace_collector(traces.get());
    }
    decoder = std::make_unique<core::DarshanDecoder>(*l2, tag, *dsos_cluster,
                                                     at_least_once,
                                                     ingest.get(),
                                                     traces.get());
    // connector.fastpath "off" keeps the validated decode_frame
    // path for binary frames; default streams the frame cursor.
    decoder->set_binary_fastpath(fastpath != "off");
  }
  // Rollup engine: observes the event database so commit-time aggregation
  // runs on the ingest writers (never a separate decode).  Attached before
  // any ingest starts; a shared engine re-attaching to the same shared
  // cluster is a no-op.
  std::shared_ptr<rollup::RollupEngine> rollup_engine;
  std::shared_ptr<anomaly::AnomalyEngine> anomaly_engine;
  const bool anomaly_on =
      dsos_cluster && (spec.shared_anomaly || spec.connector.anomaly);
  if (dsos_cluster) {
    if (spec.shared_rollup) {
      rollup_engine = spec.shared_rollup;
    } else if (!spec.connector.rollup_policies.empty() || anomaly_on) {
      rollup::PolicySet pset;
      if (!spec.connector.rollup_policies.empty()) {
        pset = rollup::parse_rollup_policies(spec.connector.rollup_policies);
        if (!pset.ok()) {
          throw std::invalid_argument("bad rollup policy: " +
                                      pset.errors.front());
        }
      }
      if (anomaly_on) {
        // Anomaly detection rides a dedicated source policy; append it
        // unless the configured policy list already defines one.
        bool have = false;
        for (const auto& p : pset.policies) {
          if (p.name == anomaly::kAnomalyPolicyName) have = true;
        }
        if (!have) {
          pset.policies.push_back(anomaly::anomaly_policy(
              spec.shared_anomaly ? spec.shared_anomaly->config().bucket_s
                                  : spec.connector.anomaly_bucket_s));
        }
      }
      rollup::RollupEngineConfig rcfg;
      rcfg.policies = pset.policies;
      if (!spec.connector.rollup_dir.empty()) {
        rcfg.store_mode = store::StoreMode::kTiered;
        rcfg.dir = spec.connector.rollup_dir;
      }
      rollup_engine = std::make_shared<rollup::RollupEngine>(rcfg);
    }
    if (rollup_engine) rollup_engine->attach(*dsos_cluster);
    if (anomaly_on) {
      if (!rollup_engine) {
        // Unreachable by construction (anomaly_on forces an engine
        // above), unless a shared_rollup was mistakenly reset.
        throw std::invalid_argument("anomaly detection needs a rollup engine");
      }
      if (spec.shared_anomaly) {
        anomaly_engine = spec.shared_anomaly;
      } else {
        anomaly::AnomalyConfig acfg;
        acfg.bucket_s = spec.connector.anomaly_bucket_s;
        acfg.straggler.z_threshold = spec.connector.anomaly_z;
        acfg.straggler.min_nodes =
            static_cast<std::size_t>(spec.connector.anomaly_min_nodes);
        acfg.trend_window =
            static_cast<std::size_t>(spec.connector.anomaly_trend_window);
        acfg.trend_rise = spec.connector.anomaly_trend_rise;
        acfg.burst.factor = spec.connector.anomaly_burst_factor;
        acfg.alerts.retention =
            static_cast<std::size_t>(spec.connector.anomaly_retention);
        anomaly_engine = std::make_shared<anomaly::AnomalyEngine>(acfg);
      }
      // Registered after the rollup attach so recovery-replay seals are
      // not re-diagnosed; attach() validates the source policy exists
      // with the engine's bucket width.
      anomaly_engine->attach(*rollup_engine);
    }
  }

  // System metric samplers: one per allocated node, publishing on the
  // metrics tag through the same transport; a collector on the analysis
  // aggregator reassembles per-channel time series.
  std::vector<std::unique_ptr<ldms::MetricSampler>> samplers;
  std::map<std::string, analysis::TimeSeries> metric_series;
  if (spec.sample_system_metrics || spec.sample_transport_health) {
    const std::string metrics_tag = "ldms-metrics";
    for (std::size_t n = 0; n < spec.node_count; ++n) {
      node_daemons[n]->add_forward(metrics_tag, *l1, transport);
    }
    // (l1 -> l2 forward already covers the connector tag; add metrics.)
    l1->add_forward(metrics_tag, *l2, transport);
    l2->bus().subscribe(metrics_tag, [&metric_series](
                                         const ldms::StreamMessage& msg) {
      ldms::MetricSample sample;
      if (!ldms::MetricSampler::from_json(msg.payload, sample)) return;
      for (std::size_t i = 0; i < sample.values.size(); ++i) {
        const std::string key = sample.names[i] + "@" + sample.producer;
        auto& series = metric_series[key];
        series.name = key;
        series.t.push_back(to_seconds(sample.timestamp));
        series.v.push_back(sample.values[i]);
      }
    });
    auto start_sampler = [&](ldms::LdmsDaemon& daemon,
                             std::unique_ptr<ldms::SamplerPlugin> plugin) {
      auto sampler = std::make_unique<ldms::MetricSampler>(
          engine, daemon, std::move(plugin), spec.metric_interval,
          metrics_tag);
      sampler->set_stop_predicate([&job] { return job.end_time() > 0; });
      sampler->start();
      samplers.push_back(std::move(sampler));
    };
    for (std::size_t n = 0; n < spec.node_count; ++n) {
      if (spec.sample_system_metrics) {
        start_sampler(*node_daemons[n],
                      std::make_unique<SystemStateSampler>(
                          variability, spec.seed + 1000 + n));
      }
      if (spec.sample_transport_health) {
        start_sampler(*node_daemons[n], std::make_unique<
                          ldms::TransportHealthSampler>(*node_daemons[n]));
      }
    }
    if (spec.sample_transport_health) {
      // The L1 aggregator's own health (its route to Shirley) rides the
      // same metrics tag through its existing forward.
      start_sampler(*l1, std::make_unique<ldms::TransportHealthSampler>(*l1));
    }
  }

  std::unique_ptr<core::DarshanLdmsConnector> connector;
  if (spec.connector_enabled) {
    connector = std::make_unique<core::DarshanLdmsConnector>(
        runtime,
        [&node_daemons, &job](int rank) {
          // Node-local daemon index: rank's node relative to the job base.
          const std::size_t node =
              job.node_of_rank(static_cast<std::size_t>(rank)) -
              job.config().first_node;
          return node_daemons[node].get();
        },
        spec.connector);
  }

  simhpc::launch_job(engine, job, spec.workload(runtime));
  engine.run();
  if (connector) {
    // Job end: force out any partially-filled wire batches, then run the
    // engine again so the tail frames traverse the transport.
    connector->flush();
    engine.run();
  }
  if (engine.unfinished_tasks() != 0) {
    throw std::logic_error("experiment deadlocked: unfinished rank tasks");
  }
  // Deterministic flush point: every decoded row is inserted before the
  // results (and any query against result.dsos) are built.
  if (ingest) ingest->drain();
  // Rollup quiescent flush: seal everything ripe so panel queries see the
  // whole run without waiting for grace windows to expire.
  if (rollup_engine && !rollup_engine->crashed()) rollup_engine->flush();

  RunResult result;
  result.runtime_s = to_seconds(job.runtime());
  result.events = runtime.event_count();
  if (connector) {
    result.messages = connector->stats().messages_published;
    result.events_published = connector->stats().events_published;
    result.bytes_published = connector->stats().bytes_published;
    result.charged_s = to_seconds(connector->stats().charged);
  }
  result.msg_rate =
      result.runtime_s > 0
          ? static_cast<double>(result.messages) / result.runtime_s
          : 0.0;
  for (const auto& d : node_daemons) {
    result.dropped += d->dropped();
    result.transport_bytes += d->forwarded_bytes();
    result.spooled += d->spooled();
    result.redelivered += d->redelivered();
    result.spool_evicted += d->spool_evicted();
  }
  result.dropped += l1->dropped();
  result.transport_bytes += l1->forwarded_bytes();
  result.spooled += l1->spooled();
  result.redelivered += l1->redelivered();
  result.spool_evicted += l1->spool_evicted();
  result.stored = counting.stored();
  result.mean_latency_s = counting.mean_latency_seconds();
  // Loss is what each node daemon stamped minus the distinct sequences
  // that arrived, so a message lost after its producer's last arrival,
  // or a producer with no arrival at all, still counts.
  const relia::SequenceTracker& tracker =
      decoder ? decoder->tracker() : l2_tracker;
  for (const auto& d : node_daemons) {
    const relia::SequenceTracker::ProducerStats* seen =
        tracker.stats(d->name());
    result.seq_lost += d->last_seq(tag) - (seen != nullptr ? seen->unique : 0);
  }
  result.duplicates_dropped = decoder ? decoder->duplicates_dropped()
                                      : tracker.total().duplicates;
  if (decoder) result.decoded_rows = decoder->decoded();
  result.dsos = dsos_cluster;
  result.rollups = rollup_engine;
  result.anomalies = anomaly_engine;
  result.traces = traces;
  if (traces) result.traces_completed = traces->completed();
  result.darshan_log = runtime.finalize();
  for (auto& [key, series] : metric_series) {
    result.system_metrics.push_back(std::move(series));
  }
  const darshan::Heatmap& hm = runtime.heatmap();
  result.heatmap_write_bytes.resize(hm.ranks());
  result.heatmap_read_bytes.resize(hm.ranks());
  for (std::size_t r = 0; r < hm.ranks(); ++r) {
    for (std::size_t b = 0; b < hm.bins(r); ++b) {
      result.heatmap_write_bytes[r].push_back(
          static_cast<double>(hm.at(r, b).write_bytes));
      result.heatmap_read_bytes[r].push_back(
          static_cast<double>(hm.at(r, b).read_bytes));
    }
  }
  return result;
}

}  // namespace dlc::exp
