#include "dsos/index.hpp"

#include <cstring>

namespace dlc::dsos {

namespace {
void put_be64(KeyBytes& out, std::uint64_t u) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((u >> shift) & 0xFF));
  }
}
}  // namespace

void encode_uint64(KeyBytes& out, std::uint64_t v) { put_be64(out, v); }

void encode_int64(KeyBytes& out, std::int64_t v) {
  put_be64(out, static_cast<std::uint64_t>(v) ^ (1ULL << 63));
}

void encode_double(KeyBytes& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  if (bits & (1ULL << 63)) {
    bits = ~bits;  // negative: reverse order
  } else {
    bits |= (1ULL << 63);  // positive: above all negatives
  }
  put_be64(out, bits);
}

void encode_string(KeyBytes& out, std::string_view v) {
  out.reserve(out.size() + v.size() + 2);
  for (char c : v) {
    out.push_back(c);
    if (c == '\0') out.push_back('\x01');
  }
  out.push_back('\0');
  out.push_back('\0');
}

void encode_value(KeyBytes& out, const Value& v, AttrType type) {
  switch (type) {
    case AttrType::kInt64:
      encode_int64(out, std::get<std::int64_t>(v));
      break;
    case AttrType::kUint64:
      encode_uint64(out, std::get<std::uint64_t>(v));
      break;
    case AttrType::kDouble:
    case AttrType::kTimestamp:
      encode_double(out, std::get<double>(v));
      break;
    case AttrType::kString:
      encode_string(out, std::get<std::string>(v));
      break;
  }
}

void encode_key_into(KeyBytes& out, const Object& obj, const IndexDef& def) {
  out.reserve(out.size() + def.attr_ids.size() * 9);
  for (std::size_t attr_id : def.attr_ids) {
    encode_value(out, obj.values[attr_id], obj.schema->attrs()[attr_id].type);
  }
}

KeyBytes prefix_upper_bound(KeyBytes p) {
  while (!p.empty() && static_cast<unsigned char>(p.back()) == 0xFF) {
    p.pop_back();
  }
  if (!p.empty()) {
    p.back() = static_cast<char>(static_cast<unsigned char>(p.back()) + 1);
  }
  return p;  // empty => unbounded above
}

void Index::insert(const Object& obj, std::size_t slot, Arena& arena) {
  scratch_.clear();
  encode_key_into(scratch_, obj, def_);
  map_.emplace(arena.intern(scratch_), slot);
}

std::vector<Index::Entry> Index::prefix_scan(const KeyBytes& prefix) const {
  const KeyBytes hi = prefix_upper_bound(prefix);
  const auto end = hi.empty() ? map_.end() : map_.lower_bound(hi);
  std::vector<Entry> entries;
  if (prefix.empty()) entries.reserve(map_.size());
  for (auto it = map_.lower_bound(prefix); it != end; ++it) {
    entries.emplace_back(it->first, it->second);
  }
  return entries;
}

}  // namespace dlc::dsos
