#include "wire/codec.hpp"

#include "core/schema_darshan.hpp"
#include "wire/varint.hpp"

namespace dlc::wire {

namespace {

// Per-event flag bits.  `type` (MET/MOD) and the off/len validity are
// derived from the op byte exactly like the JSON path derives them, so
// they need no bits here.
constexpr std::uint8_t kHasFile = 1u << 0;
constexpr std::uint8_t kHasH5 = 1u << 1;
constexpr std::uint8_t kHasDataSet = 1u << 2;
/// Event carries a pipeline-trace block (sampled events only; see
/// obs/trace.hpp): the trace id, then the first source hop absolute and
/// the second as a delta from it.
constexpr std::uint8_t kHasTrace = 1u << 3;

bool h5_traced(const darshan::Hdf5Info& h5) {
  return h5.pt_sel != -1 || h5.irreg_hslab != -1 || h5.reg_hslab != -1 ||
         h5.ndims != -1 || h5.npoints != -1;
}

/// Reads one interning-table reference: an id equal to the table size
/// introduces a new string (definition follows inline); a smaller id
/// references an earlier one; anything else is malformed.
bool read_interned(Reader& r, std::vector<std::string>& table,
                   std::string& out) {
  const std::uint64_t id = r.varint();
  if (!r.ok()) return false;
  if (id == table.size()) {
    const std::string_view s = r.string();
    if (!r.ok()) return false;
    table.emplace_back(s);
    out = table.back();
    return true;
  }
  if (id < table.size()) {
    out = table[static_cast<std::size_t>(id)];
    return true;
  }
  return false;
}

/// Reads one interning-table reference into string field `F` of `row`.
template <core::Field F>
bool read_string(Reader& r, std::vector<std::string>& table,
                 std::vector<dsos::Value>& row) {
  std::string s;
  if (!read_interned(r, table, s)) return false;
  core::set_field<F>(row, std::move(s));
  return true;
}

}  // namespace

FrameEncoder::FrameEncoder(EncodeContext ctx) : ctx_(std::move(ctx)) {
  begin_frame();
}

void FrameEncoder::begin_frame() {
  buf_.clear();
  intern_ids_.clear();
  event_count_ = 0;
  prev_end_ = 0;
  ++frame_seq_;
  buf_.push_back(kFrameMagic);
  buf_.push_back(static_cast<char>(kFrameVersion));
  put_varint(buf_, frame_seq_);
  put_varint(buf_, ctx_.uid);
  put_varint(buf_, ctx_.job_id);
  put_double(buf_, ctx_.epoch_seconds);
  put_string(buf_, ctx_.exe);
}

void FrameEncoder::put_interned(std::string_view s) {
  const auto [it, inserted] =
      intern_ids_.try_emplace(std::string(s), intern_ids_.size());
  put_varint(buf_, it->second);
  if (inserted) put_string(buf_, s);
}

void FrameEncoder::add(const darshan::IoEvent& e, std::string_view producer) {
  add(e, producer, nullptr);
}

void FrameEncoder::add(const darshan::IoEvent& e, std::string_view producer,
                       const obs::TraceContext* trace) {
  const bool is_meta = e.op == darshan::Op::kOpen;
  const bool data_op =
      e.op == darshan::Op::kRead || e.op == darshan::Op::kWrite;
  const bool traced = trace != nullptr && trace->sampled();
  std::uint8_t flags = 0;
  if (is_meta && e.file_path) flags |= kHasFile;
  if (h5_traced(e.h5)) flags |= kHasH5;
  if (!e.h5.data_set.empty()) flags |= kHasDataSet;
  if (traced) flags |= kHasTrace;

  buf_.push_back(static_cast<char>(flags));
  buf_.push_back(static_cast<char>(e.module));
  buf_.push_back(static_cast<char>(e.op));
  put_zigzag(buf_, e.rank);
  put_varint(buf_, e.record_id);
  put_interned(producer);
  if (flags & kHasFile) put_interned(*e.file_path);
  put_zigzag(buf_, e.max_byte);
  put_zigzag(buf_, e.switches);
  put_zigzag(buf_, e.flushes);
  put_zigzag(buf_, e.cnt);
  if (data_op) {
    put_varint(buf_, e.offset);
    put_varint(buf_, e.length);
  }
  put_zigzag(buf_, e.end - e.start);
  put_zigzag(buf_, e.end - prev_end_);
  prev_end_ = e.end;
  if (flags & kHasH5) {
    put_zigzag(buf_, e.h5.pt_sel);
    put_zigzag(buf_, e.h5.irreg_hslab);
    put_zigzag(buf_, e.h5.reg_hslab);
    put_zigzag(buf_, e.h5.ndims);
    put_zigzag(buf_, e.h5.npoints);
  }
  if (flags & kHasDataSet) put_interned(e.h5.data_set);
  if (traced) {
    const std::int64_t intercepted = trace->hop(obs::Hop::kIntercepted);
    put_varint(buf_, trace->id);
    put_zigzag(buf_, intercepted);
    put_zigzag(buf_, trace->hop(obs::Hop::kPublished) - intercepted);
  }
  ++event_count_;
}

std::string FrameEncoder::take_frame() {
  std::string frame = std::move(buf_);
  begin_frame();
  return frame;
}

bool looks_like_frame(std::string_view payload) {
  return payload.size() >= 2 && payload[0] == kFrameMagic &&
         static_cast<std::uint8_t>(payload[1]) == kFrameVersion;
}

std::uint64_t decode_frame_seq(std::string_view payload) {
  if (!looks_like_frame(payload)) return 0;
  Reader r(payload);
  r.byte();  // magic
  r.byte();  // version
  const std::uint64_t seq = r.varint();
  return r.ok() ? seq : 0;
}

FrameCursor::FrameCursor(std::string_view payload) : r_(payload) {
  if (!looks_like_frame(payload)) return;
  r_.byte();  // magic
  r_.byte();  // version
  frame_seq_ = r_.varint();  // transport accounting; not part of the rows
  uid_ = r_.varint();
  job_id_ = r_.varint();
  epoch_seconds_ = r_.raw_double();
  exe_ = std::string(r_.string());
  ok_ = r_.ok();
  if (!ok_) frame_seq_ = 0;
}

int FrameCursor::next(std::vector<dsos::Value>& values,
                      obs::TraceContext* trace) {
  if (!ok_ || !r_.ok()) return -1;
  if (r_.done()) return 0;

  const std::uint8_t flags = r_.byte();
  const std::uint8_t module_byte = r_.byte();
  const std::uint8_t op_byte = r_.byte();
  if (!r_.ok() || module_byte >= darshan::kModuleCount ||
      op_byte >= darshan::kOpCount) {
    return -1;
  }
  const auto op = static_cast<darshan::Op>(op_byte);

  // Fields the event does not carry keep their Table I missing default
  // ("N/A" exe/file/data_set, -1 off/len and HDF5 counters), exactly as
  // the JSON decoders fill them.
  using core::Field;
  using core::set_field;
  values = core::darshan_default_row();
  set_field<Field::kModule>(values, std::string(darshan::module_name(
                                        static_cast<darshan::Module>(
                                            module_byte))));
  set_field<Field::kUid>(values, uid_);
  set_field<Field::kJobId>(values, job_id_);
  set_field<Field::kOp>(values, std::string(darshan::op_name(op)));
  const bool is_meta = op == darshan::Op::kOpen;
  set_field<Field::kType>(values, std::string(is_meta ? "MET" : "MOD"));
  if (is_meta) set_field<Field::kExe>(values, exe_);

  set_field<Field::kRank>(values, r_.zigzag());
  set_field<Field::kRecordId>(values, r_.varint());
  if (!read_string<Field::kProducerName>(r_, table_, values)) return -1;
  if ((flags & kHasFile) && !read_string<Field::kFile>(r_, table_, values)) {
    return -1;
  }
  set_field<Field::kMaxByte>(values, r_.zigzag());
  set_field<Field::kSwitches>(values, r_.zigzag());
  set_field<Field::kFlushes>(values, r_.zigzag());
  set_field<Field::kCnt>(values, r_.zigzag());
  if (op == darshan::Op::kRead || op == darshan::Op::kWrite) {
    set_field<Field::kSegOff>(values, static_cast<std::int64_t>(r_.varint()));
    set_field<Field::kSegLen>(values, static_cast<std::int64_t>(r_.varint()));
  }
  set_field<Field::kSegDur>(values, to_seconds(r_.zigzag()));
  prev_end_ += r_.zigzag();
  set_field<Field::kSegTimestamp>(values,
                                  epoch_seconds_ + to_seconds(prev_end_));
  if (flags & kHasH5) {
    set_field<Field::kSegPtSel>(values, r_.zigzag());
    set_field<Field::kSegIrregHslab>(values, r_.zigzag());
    set_field<Field::kSegRegHslab>(values, r_.zigzag());
    set_field<Field::kSegNdims>(values, r_.zigzag());
    set_field<Field::kSegNpoints>(values, r_.zigzag());
  }
  if ((flags & kHasDataSet) &&
      !read_string<Field::kSegDataSet>(r_, table_, values)) {
    return -1;
  }
  obs::TraceContext block;
  if (flags & kHasTrace) {
    block.id = r_.varint();
    const std::int64_t intercepted = r_.zigzag();
    block.stamp(obs::Hop::kIntercepted, intercepted);
    block.stamp(obs::Hop::kPublished, intercepted + r_.zigzag());
  }
  if (!r_.ok()) return -1;
  if (trace != nullptr) *trace = block;
  return 1;
}

std::vector<dsos::Object> decode_frame(const dsos::SchemaPtr& schema,
                                       std::string_view payload,
                                       std::vector<obs::TraceContext>* traces) {
  std::vector<dsos::Object> out;
  if (traces != nullptr) traces->clear();
  FrameCursor cursor(payload);
  if (!cursor.ok()) return out;
  std::vector<dsos::Value> values;
  obs::TraceContext trace;
  for (;;) {
    const int step = cursor.next(values, &trace);
    if (step == 0) break;
    if (step < 0) {
      if (traces != nullptr) traces->clear();
      return {};
    }
    out.push_back(dsos::make_object(schema, std::move(values)));
    values = {};
    if (traces != nullptr) traces->push_back(trace);
  }
  return out;
}

}  // namespace dlc::wire
