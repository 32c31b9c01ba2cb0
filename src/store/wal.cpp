#include "store/wal.hpp"

#include <cstring>
#include <filesystem>
#include <map>

#include "store/format.hpp"
#include "util/crc32.hpp"
#include "wire/objblock.hpp"
#include "wire/varint.hpp"

namespace dlc::store {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, sizeof(buf));
  out.append(buf, sizeof(buf));
}

std::uint32_t get_u32(std::string_view bytes) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data(), sizeof(v));
  return v;
}

/// Assembles one frame body: type, CRC-32 of the payload, payload.
std::string frame_body(std::uint8_t type, std::string_view payload) {
  std::string body;
  body.push_back(static_cast<char>(type));
  put_u32(body, util::crc32(payload));
  body.append(payload.data(), payload.size());
  return body;
}

}  // namespace

bool WalWriter::open(const std::string& path) {
  return seg_.open(path, relia::FileSegment::OpenMode::kKeep);
}

void WalWriter::close() { seg_.close(); }

bool WalWriter::append_schema(const dsos::Schema& schema) {
  std::string payload;
  wire::put_schema_def(payload, schema);
  return seg_.append(frame_body(kWalFrameSchema, payload));
}

bool WalWriter::append_group(std::uint64_t first_seq,
                             const std::vector<const dsos::Object*>& rows,
                             std::size_t torn_frame_bytes) {
  std::string payload;
  wire::put_varint(payload, first_seq);
  wire::put_varint(payload, rows.size());
  payload += wire::encode_object_block(rows);
  const std::string body = frame_body(kWalFrameData, payload);
  if (torn_frame_bytes != 0) {
    seg_.append_partial(body, torn_frame_bytes);
    return false;  // the "process" died mid-write
  }
  return seg_.append(body) && seg_.flush();
}

bool replay_wal(const std::string& path, WalReplay* out) {
  if (!std::filesystem::exists(path)) return true;  // empty log
  relia::FileSegment seg;
  if (!seg.open(path, relia::FileSegment::OpenMode::kKeep)) return false;

  std::map<std::string, dsos::SchemaPtr, std::less<>> dict;
  const wire::SchemaResolver resolve =
      [&dict](std::string_view name) -> dsos::SchemaPtr {
    const auto it = dict.find(name);
    return it == dict.end() ? nullptr : it->second;
  };

  std::streamoff good_end = 0;
  std::string body;
  for (;;) {
    const auto status = seg.read_next(body);
    if (status != relia::FileSegment::ReadStatus::kOk) break;
    if (body.size() < 5) break;
    const auto type = static_cast<std::uint8_t>(body[0]);
    const std::uint32_t crc = get_u32(std::string_view(body).substr(1, 4));
    const std::string_view payload = std::string_view(body).substr(5);
    if (util::crc32(payload) != crc) break;
    if (type == kWalFrameSchema) {
      wire::Reader r(payload);
      dsos::SchemaPtr schema = wire::get_schema_def(r);
      if (schema == nullptr || !r.done()) break;
      if (dict.emplace(schema->name(), schema).second) {
        out->schemas.push_back(std::move(schema));
      }
    } else if (type == kWalFrameData) {
      wire::Reader r(payload);
      const std::uint64_t first_seq = r.varint();
      const std::uint64_t count = r.varint();
      if (!r.ok() || count == 0) break;
      std::vector<dsos::Object> rows;
      const std::string_view block =
          payload.substr(payload.size() - r.remaining());
      if (!wire::decode_object_block(block, resolve, &rows) ||
          rows.size() != count) {
        break;
      }
      // Frames within one log are seq-contiguous; a gap means the file
      // was tampered with — stop and quarantine the rest.
      if (out->frames != 0 && first_seq != out->last_seq + 1) break;
      if (out->frames == 0) out->first_seq = first_seq;
      out->last_seq = first_seq + count - 1;
      ++out->frames;
      for (dsos::Object& row : rows) out->rows.push_back(std::move(row));
    } else {
      break;  // unknown frame type: quarantine from here on
    }
    good_end = seg.read_pos();
  }

  const auto total = static_cast<std::streamoff>(seg.bytes());
  if (good_end < total) {
    out->torn_bytes = static_cast<std::uint64_t>(total - good_end);
    if (!seg.truncate_to(good_end)) return false;
  }
  return true;
}

}  // namespace dlc::store
