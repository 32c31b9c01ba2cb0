#include "darshan/log.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "util/time.hpp"
#include "wire/varint.hpp"

namespace dlc::darshan {

namespace {

constexpr char kMagic[4] = {'D', 'L', 'C', '2'};

// Fewest bytes a record and a DXT segment take: one per varint, eight
// per double.  A count the remaining bytes cannot hold is malformed, so
// the vectors sized from a count that passes stay within a small
// multiple of the input's length.
constexpr std::size_t kMinCounterBytes = [] {
  RecordCounters c;
  std::size_t n = 0;
  for_each_counter(c, [&n](auto v) {
    n += std::is_same_v<decltype(v), double> ? sizeof(double) : 1;
  });
  return n;
}();
// Module, rank, record_id, path length, segment count, dxt_dropped.
constexpr std::size_t kMinRecordBytes = 6 + kMinCounterBytes;
// Op, offset delta, length, start delta, duration.
constexpr std::size_t kMinSegmentBytes = 5;

void put_counter(std::string& out, std::int64_t v) { wire::put_zigzag(out, v); }
void put_counter(std::string& out, std::uint64_t v) {
  wire::put_varint(out, v);
}
void put_counter(std::string& out, double v) { wire::put_double(out, v); }

void get_counter(wire::Reader& in, std::int64_t& v) { v = in.zigzag(); }
void get_counter(wire::Reader& in, std::uint64_t& v) { v = in.varint(); }
void get_counter(wire::Reader& in, double& v) { v = in.raw_double(); }

// DXT deltas and durations are taken in two's complement, so a log of any
// (even fuzzed) values encodes and decodes without signed overflow.
std::string encode_body(const Log& log) {
  std::string out;
  out.reserve(4096);
  wire::put_varint(out, log.job_id);
  wire::put_varint(out, log.uid);
  wire::put_varint(out, log.nprocs);
  wire::put_zigzag(out, log.start_time);
  wire::put_zigzag(out, log.end_time);
  wire::put_string(out, log.exe);
  wire::put_varint(out, log.records.size());
  for (const Log::RecordEntry& entry : log.records) {
    const Record& r = entry.record;
    out.push_back(static_cast<char>(r.module));
    wire::put_zigzag(out, r.rank);
    wire::put_varint(out, r.record_id);
    wire::put_string(out, r.file_path);
    for_each_counter(r.counters, [&out](auto v) { put_counter(out, v); });
    wire::put_varint(out, entry.dxt.size());
    std::uint64_t prev_offset = 0;
    std::uint64_t prev_start = 0;
    for (const DxtSegment& seg : entry.dxt) {
      const auto start = static_cast<std::uint64_t>(seg.start);
      out.push_back(static_cast<char>(seg.op));
      wire::put_zigzag(out,
                       static_cast<std::int64_t>(seg.offset - prev_offset));
      wire::put_varint(out, seg.length);
      wire::put_zigzag(out, static_cast<std::int64_t>(start - prev_start));
      wire::put_varint(out, static_cast<std::uint64_t>(seg.end) - start);
      prev_offset = seg.offset;
      prev_start = start;
    }
    wire::put_varint(out, entry.dxt_dropped);
  }
  return out;
}

std::optional<Log> decode_body(std::string_view body) {
  wire::Reader in(body);
  Log log;
  log.job_id = in.varint();
  log.uid = in.varint();
  log.nprocs = in.varint();
  log.start_time = in.zigzag();
  log.end_time = in.zigzag();
  log.exe = in.string();
  const std::uint64_t records = in.varint();
  if (!in.ok() || records > in.remaining() / kMinRecordBytes) {
    return std::nullopt;
  }
  log.records.resize(records);
  for (Log::RecordEntry& entry : log.records) {
    Record& r = entry.record;
    const std::uint8_t module = in.byte();
    const std::int64_t rank = in.zigzag();
    r.record_id = in.varint();
    r.file_path = in.string();
    for_each_counter(r.counters, [&in](auto& v) { get_counter(in, v); });
    const std::uint64_t segments = in.varint();
    if (!in.ok() || module >= kModuleCount ||
        rank != static_cast<int>(rank) ||
        segments > in.remaining() / kMinSegmentBytes) {
      return std::nullopt;
    }
    r.module = static_cast<Module>(module);
    r.rank = static_cast<int>(rank);
    entry.dxt.resize(segments);
    std::uint64_t offset = 0;
    std::uint64_t start = 0;
    for (DxtSegment& seg : entry.dxt) {
      const std::uint8_t op = in.byte();
      if (op >= kOpCount) return std::nullopt;
      seg.op = static_cast<Op>(op);
      offset += static_cast<std::uint64_t>(in.zigzag());
      seg.offset = offset;
      seg.length = in.varint();
      start += static_cast<std::uint64_t>(in.zigzag());
      seg.start = static_cast<SimTime>(start);
      seg.end = static_cast<SimTime>(start + in.varint());
    }
    entry.dxt_dropped = in.varint();
  }
  if (!in.ok() || !in.done()) return std::nullopt;
  return log;
}

}  // namespace

void write_log(const Log& log, std::ostream& out) {
  const std::string body = encode_body(log);
  const std::uint64_t size = body.size();
  out.write(kMagic, sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&size), sizeof(size));
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

bool write_log_file(const Log& log, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  write_log(log, out);
  return static_cast<bool>(out);
}

std::optional<Log> read_log(std::istream& in) {
  char magic[sizeof(kMagic)] = {};
  std::uint64_t size = 0;
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
      !in.read(reinterpret_cast<char*>(&size), sizeof(size))) {
    return std::nullopt;
  }
  // The declared size is a claim, not an allocation: the body grows one
  // chunk at a time as its bytes arrive.
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  std::string body;
  while (body.size() < size) {
    const std::size_t have = body.size();
    const auto n = static_cast<std::size_t>(std::min(size - have, kChunk));
    body.resize(have + n);
    if (!in.read(body.data() + have, static_cast<std::streamsize>(n))) {
      return std::nullopt;
    }
  }
  return decode_body(body);
}

std::optional<Log> read_log_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return read_log(in);
}

std::string log_to_text(const Log& log) {
  std::ostringstream out;
  out << "# darshan log: job_id=" << log.job_id << " uid=" << log.uid
      << " nprocs=" << log.nprocs << "\n"
      << "# exe: " << log.exe << "\n"
      << "# runtime: " << format_duration(log.end_time - log.start_time)
      << "\n";
  for (const auto& entry : log.records) {
    const Record& r = entry.record;
    const RecordCounters& c = r.counters;
    out << module_name(r.module) << "\trank=" << r.rank << "\tid=0x"
        << std::hex << r.record_id << std::dec << "\t" << r.file_path << "\n"
        << "  opens=" << c.opens << " closes=" << c.closes
        << " reads=" << c.reads << " writes=" << c.writes
        << " flushes=" << c.flushes << " seeks=" << c.seeks << "\n"
        << "  bytes_read=" << c.bytes_read
        << " bytes_written=" << c.bytes_written
        << " max_byte_read=" << c.max_byte_read
        << " max_byte_written=" << c.max_byte_written
        << " rw_switches=" << c.rw_switches << "\n"
        << "  f_read_time=" << c.f_read_time
        << " f_write_time=" << c.f_write_time
        << " f_meta_time=" << c.f_meta_time << "\n"
        << "  dxt_segments=" << entry.dxt.size()
        << " dxt_dropped=" << entry.dxt_dropped << "\n";
  }
  return out.str();
}

}  // namespace dlc::darshan
