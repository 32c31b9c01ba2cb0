#include "obs/trace.hpp"

#include <charconv>

namespace dlc::obs {

bool TraceContext::complete() const {
  for (const std::int64_t t : hops) {
    if (t == kHopUnset) return false;
  }
  return true;
}

bool TraceContext::monotonic() const {
  std::int64_t prev = kHopUnset;
  for (const std::int64_t t : hops) {
    if (t == kHopUnset) continue;
    if (prev != kHopUnset && t < prev) return false;
    prev = t;
  }
  return true;
}

std::int64_t TraceContext::e2e_ns() const {
  if (!has(Hop::kIntercepted) || !has(Hop::kCommitted)) return 0;
  return hop(Hop::kCommitted) - hop(Hop::kIntercepted);
}

void append_trace_member(std::string* payload_json, const TraceContext& t) {
  if (payload_json == nullptr) return;
  const std::size_t close = payload_json->rfind('}');
  if (close == std::string::npos) return;
  const std::string values[] = {std::to_string(t.id),
                                std::to_string(t.hop(Hop::kIntercepted)),
                                std::to_string(t.hop(Hop::kPublished))};
  static_assert(std::size(values) == kTraceFields.size());
  std::string member;
  member.reserve(80);
  if (close > 0 && (*payload_json)[close - 1] != '{') member += ',';
  member += "\"trace\":{";
  for (std::size_t i = 0; i < kTraceFields.size(); ++i) {
    if (i != 0) member += ',';
    member += '"';
    member += kTraceFields[i];
    member += "\":";
    member += values[i];
  }
  member += '}';
  payload_json->insert(close, member);
}

namespace {

// Parses the integer value of member `key` (searched at or after
// `from`).  Compact writer output: no whitespace between ':' and digits.
template <typename Int>
bool int_after(std::string_view text, std::string_view key, std::size_t from,
               Int* out) {
  const std::string quoted = "\"" + std::string(key) + "\":";
  const std::size_t at = text.find(quoted, from);
  if (at == std::string_view::npos) return false;
  const char* first = text.data() + at + quoted.size();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr != first;
}

}  // namespace

bool parse_trace_member(std::string_view payload_json, TraceContext* out) {
  if (out == nullptr) return false;
  const std::size_t at = payload_json.rfind("\"trace\":{");
  if (at == std::string_view::npos) return false;
  std::uint64_t id = 0;
  std::int64_t intercepted = 0;
  std::int64_t published = 0;
  if (!int_after(payload_json, kTraceFields[0], at, &id) ||
      !int_after(payload_json, kTraceFields[1], at, &intercepted) ||
      !int_after(payload_json, kTraceFields[2], at, &published)) {
    return false;
  }
  if (id == 0) return false;
  out->id = id;
  out->stamp(Hop::kIntercepted, intercepted);
  out->stamp(Hop::kPublished, published);
  return true;
}

}  // namespace dlc::obs
