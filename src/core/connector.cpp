#include "core/connector.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "core/schema_darshan.hpp"
#include "obs/registry.hpp"

namespace dlc::core {

namespace {

obs::Counter& trace_sampled_counter() {
  static obs::Counter& c = obs::Registry::global().counter("dlc.trace.sampled");
  return c;
}

json::NumberFormat number_format_for(FormatMode mode) {
  switch (mode) {
    case FormatMode::kSnprintfJson:
      return json::NumberFormat::kSnprintf;
    case FormatMode::kFastJson:
      return json::NumberFormat::kFastItoa;
    case FormatMode::kNone:
      return json::NumberFormat::kNull;
  }
  return json::NumberFormat::kSnprintf;
}

/// Writes Table I field `F` of event `e`'s connector message, opening
/// the `seg` list before the first seg member.  MET fields (exe, file)
/// ride only on opens.  Data ops report the real access; open/close
/// leave off/len at their missing default, just like the paper's sample
/// open message.
template <Field F>
void write_member(json::Writer& w, const darshan::IoEvent& e,
                  const darshan::Runtime& runtime, const SimEpoch& epoch) {
  constexpr const FieldSpec& f = field_spec(F);
  if constexpr (f.fig3 == kTopFieldCount) {
    w.key("seg");
    w.begin_array();
    w.begin_object();
  }
  const bool is_meta = e.op == darshan::Op::kOpen;
  const bool data_op =
      e.op == darshan::Op::kRead || e.op == darshan::Op::kWrite;
  const auto& job = runtime.job();
  switch (F) {
    case Field::kModule:
      return w.member(f.key, darshan::module_name(e.module));
    case Field::kUid:
      return w.member(f.key, job.uid());
    case Field::kProducerName:
      return w.member(f.key,
                      job.producer_name(static_cast<std::size_t>(e.rank)));
    case Field::kSwitches:
      return w.member(f.key, e.switches);
    case Field::kFile:
      return w.member(f.key, is_meta && e.file_path
                                 ? std::string_view(*e.file_path)
                                 : kNotAvailable);
    case Field::kRank:
      return w.member(f.key, std::int64_t{e.rank});
    case Field::kFlushes:
      return w.member(f.key, e.flushes);
    case Field::kRecordId:
      return w.member(f.key, e.record_id);
    case Field::kExe:
      return w.member(f.key, is_meta ? std::string_view(runtime.config().exe)
                                     : kNotAvailable);
    case Field::kMaxByte:
      return w.member(f.key, e.max_byte);
    case Field::kType:
      return w.member(f.key, is_meta ? "MET" : "MOD");
    case Field::kJobId:
      return w.member(f.key, job.job_id());
    case Field::kOp:
      return w.member(f.key, darshan::op_name(e.op));
    case Field::kCnt:
      return w.member(f.key, e.cnt);
    case Field::kSegOff:
      return w.member(f.key, data_op ? static_cast<std::int64_t>(e.offset)
                                     : missing_int(f));
    case Field::kSegPtSel:
      return w.member(f.key, e.h5.pt_sel);
    case Field::kSegDur:
      return w.member(f.key, to_seconds(e.end - e.start));
    case Field::kSegLen:
      return w.member(f.key, data_op ? static_cast<std::int64_t>(e.length)
                                     : missing_int(f));
    case Field::kSegNdims:
      return w.member(f.key, e.h5.ndims);
    case Field::kSegRegHslab:
      return w.member(f.key, e.h5.reg_hslab);
    case Field::kSegIrregHslab:
      return w.member(f.key, e.h5.irreg_hslab);
    case Field::kSegDataSet:
      return w.member(f.key, e.h5.data_set.empty()
                                 ? kNotAvailable
                                 : std::string_view(e.h5.data_set));
    case Field::kSegNpoints:
      return w.member(f.key, e.h5.npoints);
    case Field::kSegTimestamp:
      return w.member(f.key, epoch.to_epoch_seconds(e.end));
  }
}

}  // namespace

std::string_view wire_format_name(WireFormat f) {
  switch (f) {
    case WireFormat::kJson:
      return "json";
    case WireFormat::kBinary:
      return "binary";
    case WireFormat::kBinaryBatched:
      return "binary_batched";
  }
  return "?";
}

DarshanLdmsConnector::DarshanLdmsConnector(darshan::Runtime& runtime,
                                           DaemonOfRank daemon_of_rank,
                                           ConnectorConfig config)
    : runtime_(runtime),
      daemon_of_rank_(std::move(daemon_of_rank)),
      config_(std::move(config)),
      writer_(number_format_for(config_.format)),
      encoder_(encode_context(runtime, epoch_)),
      rank_event_counts_(runtime.job().rank_count(), 0),
      rank_last_publish_(runtime.job().rank_count(), kNeverPublished) {
  runtime_.set_event_hook(
      [this](const darshan::IoEvent& e) { return on_event(e); });
}

DarshanLdmsConnector::~DarshanLdmsConnector() { flush(); }

wire::EncodeContext DarshanLdmsConnector::encode_context(
    const darshan::Runtime& runtime, const SimEpoch& epoch) {
  wire::EncodeContext ctx;
  ctx.uid = runtime.job().uid();
  ctx.job_id = runtime.job().job_id();
  ctx.exe = runtime.config().exe;
  ctx.epoch_seconds = epoch.epoch_seconds();
  return ctx;
}

void DarshanLdmsConnector::flush() {
  for (auto& [daemon, batcher] : batchers_) batcher->flush();
}

void DarshanLdmsConnector::publish_payload(ldms::LdmsDaemon& daemon,
                                           ldms::PayloadFormat format,
                                           std::string payload,
                                           std::size_t events,
                                           const obs::TraceContext* trace) {
  stats_.bytes_published += payload.size();
  daemon.publish(config_.stream_tag, format, std::move(payload), trace);
  ++stats_.messages_published;
  stats_.events_published += events;
}

wire::StreamBatcher& DarshanLdmsConnector::batcher_for(
    ldms::LdmsDaemon& daemon) {
  auto it = batchers_.find(&daemon);
  if (it == batchers_.end()) {
    auto batcher = std::make_unique<wire::StreamBatcher>(
        encoder_.context(), config_.batch,
        wire::TracedFrameSink([this, d = &daemon](std::string frame,
                                                  std::size_t events,
                                                  const obs::TraceContext* t) {
          publish_payload(*d, ldms::PayloadFormat::kBinary, std::move(frame),
                          events, t);
        }));
    it = batchers_.emplace(&daemon, std::move(batcher)).first;
  }
  return *it->second;
}

void DarshanLdmsConnector::format_message(json::Writer& w,
                                          const darshan::IoEvent& e,
                                          const darshan::Runtime& runtime,
                                          const SimEpoch& epoch) {
  w.reset();
  w.begin_object();
  // One write per Table I field, in Fig. 3 order, unrolled at compile
  // time.
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (write_member<kFig3Order[I]>(w, e, runtime, epoch), ...);
  }(std::make_index_sequence<kDarshanFieldCount>());
  w.end_object();
  w.end_array();
  w.end_object();
}

SimDuration DarshanLdmsConnector::on_event(const darshan::IoEvent& e) {
  ++stats_.events_seen;
  SimDuration charge = 0;

  const auto skip = [this]() -> SimDuration {
    ++stats_.events_sampled_out;
    const SimDuration c = config_.charge_costs ? config_.costs.skip_cost : 0;
    stats_.charged += c;
    return c;
  };

  // Module enable/disable filter.
  if (!config_.module_filter.empty() &&
      std::find(config_.module_filter.begin(), config_.module_filter.end(),
                e.module) == config_.module_filter.end()) {
    return skip();
  }

  // Sampling mitigations (paper future work).  Opens/closes always pass:
  // they carry MET metadata and delimit cnt epochs.
  const bool forced = e.op == darshan::Op::kOpen ||
                      e.op == darshan::Op::kClose;
  const std::uint64_t n = config_.sample_every_n;
  const std::uint64_t count =
      ++rank_event_counts_[static_cast<std::size_t>(e.rank)];
  if (!forced && n > 1 && count % n != 0) {
    return skip();
  }
  if (!forced && config_.min_publish_interval > 0) {
    auto& last = rank_last_publish_[static_cast<std::size_t>(e.rank)];
    if (last != kNeverPublished &&
        e.end - last < config_.min_publish_interval) {
      return skip();
    }
    last = e.end;
  }

  // Format (real work, measured) unless ablated away.  FormatMode::kNone
  // short-circuits every wire format: it is the "only the Streams API is
  // enabled" ablation.  Otherwise wire_format selects JSON text, a binary
  // frame per event, or batched multi-event frames.
  const bool binary = config_.wire_format != WireFormat::kJson &&
                      config_.format != FormatMode::kNone;
  const bool batched = binary &&
                       config_.wire_format == WireFormat::kBinaryBatched;
  ldms::LdmsDaemon* daemon =
      config_.publish ? daemon_of_rank_(e.rank) : nullptr;

  // Pipeline-trace sampling: every n-th *published* event carries a
  // TraceContext end to end (obs/trace.hpp).  FormatMode::kNone publishes
  // a placeholder payload that cannot carry the block, so it never traces.
  obs::TraceContext trace;
  const obs::TraceContext* trace_ptr = nullptr;
  if (config_.trace_sample_n > 0 && daemon != nullptr &&
      config_.format != FormatMode::kNone &&
      ++trace_counter_ % config_.trace_sample_n == 0) {
    trace.id = (runtime_.job().job_id() << 32) | (trace_counter_ & 0xffffffff);
    trace.stamp(obs::Hop::kIntercepted, e.start);
    trace.stamp(obs::Hop::kPublished, e.end);
    trace_ptr = &trace;
    if (obs::enabled()) trace_sampled_counter().add();
  }

  // On-wire bytes attributable to this event, and stream publishes it
  // triggered (batched frames publish inside the batcher sink).
  std::size_t event_bytes = 0;
  std::size_t publish_calls = 0;
  std::string frame;
  const auto t0 = std::chrono::steady_clock::now();
  if (!binary) {
    if (config_.format == FormatMode::kNone) {
      writer_.reset();
      writer_.value_string("darshanConnector: formatting disabled");
    } else {
      format_message(writer_, e, runtime_, epoch_);
    }
    event_bytes = writer_.str().size();
  } else {
    const std::string& producer =
        runtime_.job().producer_name(static_cast<std::size_t>(e.rank));
    if (!batched) {
      encoder_.add(e, producer, trace_ptr);
      frame = encoder_.take_frame();
      event_bytes = frame.size();
    } else if (daemon) {
      const auto outcome =
          batcher_for(*daemon).add(e, producer, e.end, trace_ptr);
      event_bytes = outcome.bytes_added;
      publish_calls = outcome.frames_emitted;
    } else {
      // Observe-only baseline: encode (so the modelled and measured
      // format cost matches a publishing run) but discard full frames.
      const std::size_t before = encoder_.size_bytes();
      encoder_.add(e, producer);
      event_bytes = encoder_.size_bytes() - before;
      if (encoder_.event_count() >= config_.batch.max_events) {
        (void)encoder_.take_frame();
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  stats_.real_format_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());

  // Publish to the rank's node-local daemon.
  if (daemon && !batched) {
    publish_calls = 1;
    if (binary) {
      publish_payload(*daemon, ldms::PayloadFormat::kBinary, std::move(frame),
                      1, trace_ptr);
    } else {
      // The trace member is appended *after* format_message, so
      // event_bytes above stays the pre-trace size and the modelled
      // format cost is identical for sampled events.
      std::string payload = writer_.str();
      if (trace_ptr != nullptr) obs::append_trace_member(&payload, trace);
      publish_payload(*daemon,
                      config_.format == FormatMode::kNone
                          ? ldms::PayloadFormat::kString
                          : ldms::PayloadFormat::kJson,
                      std::move(payload), 1, trace_ptr);
    }
  }

  // Model the Cray-side per-event cost.
  if (config_.charge_costs) {
    const CostModel& m = config_.costs;
    if (config_.format != FormatMode::kNone) {
      auto format_cost =
          m.format_base +
          m.format_per_byte * static_cast<SimDuration>(event_bytes);
      if (binary) {
        format_cost = static_cast<SimDuration>(
            static_cast<double>(format_cost) * m.binary_format_factor);
      } else if (config_.format == FormatMode::kFastJson) {
        format_cost = static_cast<SimDuration>(
            static_cast<double>(format_cost) * m.fast_format_factor);
      }
      charge += format_cost;
    }
    if (config_.publish) {
      // The publish call is paid per stream message: once per event for
      // the per-event formats, once per flushed frame when batching —
      // the O(batches) saving the batcher exists to provide.
      charge += m.publish_cost *
                static_cast<SimDuration>(batched ? publish_calls : 1);
    }
    stats_.charged += charge;
  }
  return charge;
}

}  // namespace dlc::core
