#include "core/decoder.hpp"

#include <array>

#include "json/parser.hpp"
#include "json/scan.hpp"
#include "obs/registry.hpp"
#include "util/strings.hpp"
#include "wire/codec.hpp"

namespace dlc::core {

namespace {

// Fast-path slot tables: the keys of the top-level and the per-seg
// fields, each in table order.  Duplicate keys overwrite their slot —
// the same last-wins rule json::parse applies via insert_or_assign.
template <bool Seg>
constexpr auto field_keys() {
  std::array<std::string_view,
             Seg ? kDarshanFieldCount - kTopFieldCount : kTopFieldCount>
      keys{};
  std::size_t n = 0;
  for (const FieldSpec& f : kDarshanFields) {
    if (f.in_seg == Seg) keys[n++] = f.key;
  }
  return keys;
}
constexpr auto kTopKeys = field_keys<false>();
constexpr auto kSegKeys = field_keys<true>();

template <std::size_t N>
int field_slot(const std::array<std::string_view, N>& table,
               std::string_view key) {
  for (std::size_t i = 0; i < N; ++i) {
    if (table[i] == key) return static_cast<int>(i);
  }
  return -1;
}

/// A scanned token as field `f`'s value (its missing default when the
/// token is absent or of the wrong kind).
dsos::Value token_value(const FieldSpec& f, const json::Token& t) {
  switch (f.type) {
    case dsos::AttrType::kInt64:
      return t.as_int(missing_int(f));
    case dsos::AttrType::kUint64:
      return t.as_uint(0);
    case dsos::AttrType::kDouble:
    case dsos::AttrType::kTimestamp:
      return t.as_double(0.0);
    case dsos::AttrType::kString:
      return std::string(t.as_string(kNotAvailable));
  }
  return {};
}

/// Member `f.key` of DOM object `obj` as field `f`'s value, with the same
/// fallbacks as token_value.
dsos::Value dom_value(const FieldSpec& f, const json::Value& obj) {
  switch (f.type) {
    case dsos::AttrType::kInt64:
      return obj.get_int(f.key, missing_int(f));
    case dsos::AttrType::kUint64:
      return obj.get_uint(f.key, 0);
    case dsos::AttrType::kDouble:
    case dsos::AttrType::kTimestamp:
      return obj.get_double(f.key, 0.0);
    case dsos::AttrType::kString:
      return obj.get_string(f.key, std::string(kNotAvailable));
  }
  return {};
}

}  // namespace

bool decode_message_fast(const dsos::SchemaPtr& schema,
                         std::string_view payload,
                         std::vector<dsos::Object>& out) {
  out.clear();
  json::Scanner sc(payload);
  if (!sc.enter_object()) return false;

  std::array<json::Token, kTopKeys.size()> top;
  std::array<std::string, kTopKeys.size()> top_scratch;
  std::string key_scratch;
  std::string_view seg_span;
  bool have_seg = false;
  bool seg_is_array = false;

  for (;;) {
    std::string_view key;
    const int r = sc.next_member(key, key_scratch);
    if (r < 0) return false;
    if (r == 0) break;
    if (key == "seg") {
      seg_is_array = sc.peek_array();
      if (!sc.value_span(seg_span)) return false;
      have_seg = true;
    } else if (const int slot = field_slot(kTopKeys, key); slot >= 0) {
      if (!sc.scan_token(top[slot], top_scratch[slot])) return false;
    } else {
      if (!sc.skip_value()) return false;
    }
  }
  // json::parse rejects trailing characters; diverging here would make
  // the fast path accept payloads the DOM path calls malformed.
  if (!sc.at_end()) return false;
  if (!have_seg || !seg_is_array) return true;  // valid doc, zero rows

  json::Scanner segs(seg_span);
  if (!segs.enter_array()) return false;
  std::array<json::Token, kSegKeys.size()> seg;
  std::array<std::string, kSegKeys.size()> seg_scratch;
  for (;;) {
    const int e = segs.next_element();
    if (e < 0) return false;
    if (e == 0) break;
    if (!segs.peek_object()) {  // DOM path: `if (!s.is_object()) continue;`
      if (!segs.skip_value()) return false;
      continue;
    }
    seg.fill(json::Token{});
    if (!segs.enter_object()) return false;
    for (;;) {
      std::string_view key;
      const int r = segs.next_member(key, key_scratch);
      if (r < 0) return false;
      if (r == 0) break;
      if (const int slot = field_slot(kSegKeys, key); slot >= 0) {
        if (!segs.scan_token(seg[slot], seg_scratch[slot])) return false;
      } else {
        if (!segs.skip_value()) return false;
      }
    }

    // Slots hold each group's fields in table order.
    std::vector<dsos::Value> values;
    values.reserve(kDarshanFieldCount);
    std::size_t next_top = 0, next_seg = 0;
    for (const FieldSpec& f : kDarshanFields) {
      values.push_back(
          token_value(f, f.in_seg ? seg[next_seg++] : top[next_top++]));
    }
    out.push_back(dsos::make_object(schema, std::move(values)));
  }
  return true;
}

std::vector<dsos::Object> decode_message(const dsos::SchemaPtr& schema,
                                         const std::string& payload) {
  std::vector<dsos::Object> out;
  const auto doc = json::parse(payload);
  if (!doc || !doc->is_object()) return out;

  const json::Value* seg = doc->find("seg");
  if (!seg || !seg->is_array()) return out;

  for (const json::Value& s : seg->as_array()) {
    if (!s.is_object()) continue;
    std::vector<dsos::Value> values;
    values.reserve(kDarshanFieldCount);
    for (const FieldSpec& f : kDarshanFields) {
      values.push_back(dom_value(f, f.in_seg ? s : *doc));
    }
    out.push_back(dsos::make_object(schema, std::move(values)));
  }
  return out;
}

std::string to_csv_row(const dsos::Object& obj) {
  // Fig. 3 column order == schema attribute order.
  std::string row;
  for (std::size_t i = 0; i < obj.values.size(); ++i) {
    if (i) row.push_back(',');
    const dsos::Value& v = obj.values[i];
    std::visit(
        [&row](const auto& x) {
          using T = std::decay_t<decltype(x)>;
          if constexpr (std::is_same_v<T, std::string>) {
            row += csv_escape(x);
          } else if constexpr (std::is_same_v<T, double>) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.6f", x);
            row += buf;
          } else {
            row += std::to_string(x);
          }
        },
        v);
  }
  return row;
}

namespace {

/// Registry mirrors for the binary fast path (cached once; see
/// obs/registry.hpp).  The fast path stamps these once per FRAME — the
/// batch-amortisation that makes always-on metrics affordable at
/// multi-million events/sec.
struct DecodeObs {
  obs::Counter& frames;
  obs::Counter& events;
};

DecodeObs& decode_obs() {
  static DecodeObs o{
      obs::Registry::global().counter("dlc.decode.frames"),
      obs::Registry::global().counter("dlc.decode.events"),
  };
  return o;
}

}  // namespace

bool DarshanDecoder::decode_frame_fast(std::string_view payload) {
  wire::FrameCursor cursor(payload);
  if (!cursor.ok()) return false;
  const bool want_traces = collector_ != nullptr;
  scratch_traces_.clear();
  std::vector<dsos::Value> values;
  obs::TraceContext trace;
  for (;;) {
    const int step = cursor.next(values, want_traces ? &trace : nullptr);
    if (step == 0) break;
    if (step < 0) {
      // Bad frames drop whole, like the JSON path: discard every row
      // already decoded from this frame.
      scratch_rows_.clear();
      scratch_traces_.clear();
      return false;
    }
    // Trusted construction: the cursor sets each field with its Table I
    // type checked at compile time, so the make_object validation pass
    // is pure overhead here.
    scratch_rows_.push_back(
        dsos::make_object_unchecked(schema_, std::move(values)));
    values = {};
    if (want_traces) scratch_traces_.push_back(trace);
  }
  if (obs::enabled() && !scratch_rows_.empty()) {
    decode_obs().frames.add();
    decode_obs().events.add(scratch_rows_.size());
  }
  return true;
}

DarshanDecoder::DarshanDecoder(ldms::LdmsDaemon& daemon, const std::string& tag,
                               dsos::DsosCluster& cluster,
                               bool dedup_redelivered,
                               dsos::IngestExecutor* ingest,
                               obs::TraceCollector* traces)
    : schema_(darshan_data_schema()),
      dedup_redelivered_(dedup_redelivered),
      ingest_(ingest),
      collector_(traces) {
  if (ingest_ == nullptr) {
    owned_ingest_ =
        std::make_unique<dsos::IngestExecutor>(cluster, dsos::IngestConfig{});
    owned_ingest_->set_trace_collector(traces);
    ingest_ = owned_ingest_.get();
  }
  cluster.register_schema(schema_);
  daemon.bus().subscribe(tag, [this](const ldms::StreamMessage& msg) {
    on_message(msg);
  });
}

void DarshanDecoder::on_message(const ldms::StreamMessage& msg) {
  const auto observed = tracker_.observe(msg.producer, msg.seq);
  if (observed == relia::SequenceTracker::Observe::kDuplicate &&
      dedup_redelivered_) {
    ++duplicates_dropped_;  // at-least-once redelivery; already ingested
    return;
  }
  std::vector<dsos::Object>& objects = scratch_rows_;
  objects.clear();
  if (msg.format == ldms::PayloadFormat::kJson) {
    // A declined payload may leave partial rows behind: drop them all.
    if (!decode_message_fast(schema_, msg.payload, objects)) {
      ++malformed_;
      return;
    }
  } else if (msg.format == ldms::PayloadFormat::kBinary) {
    if (binary_fastpath_) {
      // Fast path: stream the frame cursor straight into the scratch
      // rows — no second validation pass, per-frame obs stamping.
      if (!decode_frame_fast(msg.payload)) {
        ++malformed_;
        return;
      }
    } else {
      objects = wire::decode_frame(
          schema_, msg.payload,
          collector_ != nullptr ? &scratch_traces_ : nullptr);
    }
    if (!objects.empty()) ++frames_decoded_;
  } else {
    ++malformed_;  // placeholder payloads from the kNone ablation
    return;
  }
  if (objects.empty()) {
    ++malformed_;
    return;
  }

  // Merge the two trace halves for sampled messages: the payload block
  // carries the source hops (proof the block survived encode/decode), the
  // envelope carries the transport hops stamped by the daemons.
  obs::TraceContext trace;
  std::size_t traced_index = 0;
  bool have_trace = false;
  if (collector_ != nullptr && msg.trace.sampled()) {
    if (msg.format == ldms::PayloadFormat::kJson) {
      have_trace = obs::parse_trace_member(msg.payload, &trace);
    } else {
      for (std::size_t i = 0; i < scratch_traces_.size(); ++i) {
        if (scratch_traces_[i].sampled()) {
          trace = scratch_traces_[i];
          traced_index = i;
          have_trace = true;
          break;
        }
      }
    }
    if (have_trace) {
      for (const obs::Hop h : {obs::Hop::kBusEnqueued,
                               obs::Hop::kDaemonForwarded,
                               obs::Hop::kAggregated}) {
        if (msg.trace.has(h)) trace.stamp(h, msg.trace.hop(h));
      }
      trace.stamp(obs::Hop::kDecoded, msg.deliver_time);
      trace.stamp(obs::Hop::kIngestEnqueued, msg.deliver_time);
    } else {
      // Envelope says sampled but the payload block is gone — count the
      // partial span as incomplete rather than losing it silently.
      collector_->complete(msg.trace);
    }
  }

  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (have_trace && i == traced_index) {
      ingest_->submit_traced(std::move(objects[i]), trace);
    } else {
      ingest_->submit(std::move(objects[i]));
    }
    ++decoded_;
  }
}

}  // namespace dlc::core
