#include "dsos/container.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dlc::dsos {

namespace {

/// True when `row` and `cond` encode to the same index-key bytes.  The
/// encoding is one-to-one within a type, so a per-row check compares the
/// values instead of encoding every scanned row: same type and value, and
/// for doubles the same bit pattern.
bool same_key(const Value& row, const Value& cond) {
  const double* a = std::get_if<double>(&row);
  const double* b = std::get_if<double>(&cond);
  if (a != nullptr && b != nullptr) {
    return std::bit_cast<std::uint64_t>(*a) ==
           std::bit_cast<std::uint64_t>(*b);
  }
  return row == cond;
}

}  // namespace

void Container::set_commit_sink(CommitSink* sink) {
  if (sink != nullptr && sink_ != nullptr && sink_ != sink) {
    throw std::logic_error(
        "dsos: container already has a commit sink attached "
        "(double store open? close the first store before opening another)");
  }
  sink_ = sink;
}

void Container::add_observer(CommitSink* observer) {
  if (observer == nullptr) return;
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    return;  // idempotent re-attach
  }
  observers_.push_back(observer);
}

void Container::remove_observer(CommitSink* observer) {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

void Container::register_schema(SchemaPtr schema) {
  // Idempotent: re-registering (e.g. a second decoder joining a shared
  // cluster) must not discard existing indices.
  if (schemas_.contains(schema->name())) return;
  SchemaState state;
  state.schema = schema;
  for (const IndexDef& def : schema->indices()) state.indices.emplace_back(def);
  schemas_.emplace(schema->name(), std::move(state));
}

SchemaPtr Container::schema(std::string_view name) const {
  const auto it = schemas_.find(name);
  return it == schemas_.end() ? nullptr : it->second.schema;
}

const Container::SchemaState& Container::schema_state(
    std::string_view name) const {
  const auto it = schemas_.find(name);
  if (it == schemas_.end()) {
    throw std::out_of_range("dsos: unknown schema " + std::string(name));
  }
  return it->second;
}

std::size_t Container::insert(Object obj) {
  auto it = schemas_.find(obj.schema->name());
  if (it == schemas_.end()) {
    throw std::out_of_range("dsos: insert into unregistered schema " +
                            obj.schema->name());
  }
  SchemaState& state = it->second;
  const std::size_t slot = objects_.size();
  objects_.push_back(std::move(obj));
  const Object& stored = objects_.back();
  for (Index& index : state.indices) {
    index.insert(stored, slot, key_arena_);
  }
  if (sink_ != nullptr) sink_->on_insert(stored);
  for (CommitSink* obs : observers_) obs->on_insert(stored);
  return slot;
}

std::vector<QueryHit> Container::query(std::string_view schema_name,
                                       std::string_view index_name,
                                       const Filter& filter) const {
  const SchemaState& state = schema_state(schema_name);
  const Schema& schema = *state.schema;
  const auto index_pos = schema.find_index(index_name);
  if (!index_pos) {
    throw std::out_of_range("dsos: unknown index " + std::string(index_name));
  }
  const Index& index = state.indices[*index_pos];

  // Every condition's type is checked before anything is scanned,
  // wherever it sits.
  struct Term {
    std::size_t attr_id;
    const Value* value;
  };
  std::vector<Term> terms;
  bool unknown_attr = false;
  for (const Condition& cond : filter) {
    const auto attr_id = schema.find_attr(cond.attr);
    if (!attr_id) {
      unknown_attr = true;
      continue;
    }
    if (!value_matches_type(cond.value, schema.attrs()[*attr_id].type)) {
      throw std::invalid_argument("dsos: condition value type mismatch for " +
                                  cond.attr);
    }
    terms.push_back(Term{*attr_id, &cond.value});
  }

  // The longest run of conditions covering the leading key attributes is
  // the scanned prefix; the terms left over are checked per row.
  KeyBytes prefix;
  for (const std::size_t key_attr : index.def().attr_ids) {
    const auto it =
        std::find_if(terms.begin(), terms.end(),
                     [&](const Term& t) { return t.attr_id == key_attr; });
    if (it == terms.end()) break;
    encode_value(prefix, *it->value, schema.attrs()[key_attr].type);
    terms.erase(it);
  }

  const std::vector<Index::Entry> entries =
      unknown_attr ? std::vector<Index::Entry>{} : index.prefix_scan(prefix);
  {
    const util::LockGuard lock(stats_m_);
    last_scanned_ = entries.size();
  }

  std::vector<QueryHit> hits;
  hits.reserve(entries.size());
  for (const auto& [key, slot] : entries) {
    const Object& obj = objects_[slot];
    const bool match =
        std::all_of(terms.begin(), terms.end(), [&obj](const Term& t) {
          return same_key(obj.values[t.attr_id], *t.value);
        });
    if (match) hits.push_back(QueryHit{key, &obj});
  }
  return hits;
}

std::vector<const Object*> Container::select(std::string_view schema_name,
                                             std::string_view index_name,
                                             const Filter& filter) const {
  std::vector<const Object*> out;
  for (const QueryHit& hit : query(schema_name, index_name, filter)) {
    out.push_back(hit.object);
  }
  return out;
}

}  // namespace dlc::dsos
