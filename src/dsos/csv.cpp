#include "dsos/csv.hpp"

#include <cstdio>
#include <ostream>

#include "util/strings.hpp"

namespace dlc::dsos {

std::string csv_header(const Schema& schema) {
  std::string out;
  for (std::size_t i = 0; i < schema.attrs().size(); ++i) {
    if (i) out.push_back(',');
    out += schema.attrs()[i].name;
  }
  return out;
}

std::string csv_row(const Object& obj) {
  std::string out;
  for (std::size_t i = 0; i < obj.values.size(); ++i) {
    if (i) out.push_back(',');
    const Value& v = obj.values[i];
    std::visit(
        [&out](const auto& x) {
          using T = std::decay_t<decltype(x)>;
          if constexpr (std::is_same_v<T, std::string>) {
            out += csv_escape(x);
          } else if constexpr (std::is_same_v<T, double>) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", x);
            out += buf;
          } else {
            out += std::to_string(x);
          }
        },
        v);
  }
  return out;
}

std::optional<Object> csv_parse_row(const SchemaPtr& schema,
                                    const std::string& line) {
  const std::vector<std::string> fields = csv_parse_line(line);
  if (fields.size() != schema->attrs().size()) return std::nullopt;
  std::vector<Value> values;
  values.reserve(fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    auto v = parse_value(schema->attrs()[i].type, fields[i]);
    if (!v) return std::nullopt;
    values.push_back(std::move(*v));
  }
  return make_object(schema, std::move(values));
}

void export_csv(std::ostream& out, const Schema& schema,
                const std::vector<const Object*>& objects) {
  out << csv_header(schema) << '\n';
  for (const Object* obj : objects) out << csv_row(*obj) << '\n';
}

}  // namespace dlc::dsos
