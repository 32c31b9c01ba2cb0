#include "json/value.hpp"

#include "json/number.hpp"
#include "json/writer.hpp"

namespace dlc::json {

std::int64_t Value::as_int(std::int64_t fallback) const {
  if (is_double()) return double_to_int(std::get<double>(data_), fallback);
  if (is_uint()) {
    return static_cast<std::int64_t>(std::get<std::uint64_t>(data_));
  }
  return std::get<std::int64_t>(data_);
}

std::uint64_t Value::as_uint(std::uint64_t fallback) const {
  if (is_double()) return double_to_uint(std::get<double>(data_), fallback);
  if (is_int()) return static_cast<std::uint64_t>(std::get<std::int64_t>(data_));
  return std::get<std::uint64_t>(data_);
}

double Value::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(data_));
  if (is_uint()) return static_cast<double>(std::get<std::uint64_t>(data_));
  return std::get<double>(data_);
}

const Value* Value::find(std::string_view k) const {
  if (!is_object()) return nullptr;
  const auto& obj = as_object();
  const auto it = obj.find(k);
  return it == obj.end() ? nullptr : &it->second;
}

std::int64_t Value::get_int(std::string_view k, std::int64_t fallback) const {
  const Value* v = find(k);
  return (v && v->is_number()) ? v->as_int(fallback) : fallback;
}

std::uint64_t Value::get_uint(std::string_view k,
                              std::uint64_t fallback) const {
  const Value* v = find(k);
  return (v && v->is_number()) ? v->as_uint(fallback) : fallback;
}

double Value::get_double(std::string_view k, double fallback) const {
  const Value* v = find(k);
  return (v && v->is_number()) ? v->as_double() : fallback;
}

std::string Value::get_string(std::string_view k, std::string fallback) const {
  const Value* v = find(k);
  return (v && v->is_string()) ? v->as_string() : fallback;
}

namespace {
void dump_to(const Value& v, Writer& w);

void dump_array(const Array& arr, Writer& w) {
  w.begin_array();
  for (const Value& v : arr) dump_to(v, w);
  w.end_array();
}

void dump_object(const Object& obj, Writer& w) {
  w.begin_object();
  for (const auto& [k, v] : obj) {
    w.key(k);
    dump_to(v, w);
  }
  w.end_object();
}

void dump_to(const Value& v, Writer& w) {
  if (v.is_null()) {
    w.value_null();
  } else if (v.is_bool()) {
    w.value_bool(v.as_bool());
  } else if (v.is_int()) {
    w.value_int(v.as_int());
  } else if (v.is_uint()) {
    w.value_uint(v.as_uint());
  } else if (v.is_double()) {
    w.value_double(v.as_double(), 17);
  } else if (v.is_string()) {
    w.value_string(v.as_string());
  } else if (v.is_array()) {
    dump_array(v.as_array(), w);
  } else {
    dump_object(v.as_object(), w);
  }
}
}  // namespace

std::string Value::dump() const {
  Writer w(NumberFormat::kFastItoa);
  dump_to(*this, w);
  return w.take();
}

}  // namespace dlc::json
