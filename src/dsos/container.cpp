#include "dsos/container.hpp"

#include <algorithm>
#include <stdexcept>

namespace dlc::dsos {

bool matches(const Object& obj, const Filter& filter) {
  for (const Condition& cond : filter) {
    const auto attr_id = obj.schema->find_attr(cond.attr);
    if (!attr_id) return false;
    const int c = compare_values(obj.values[*attr_id], cond.value);
    switch (cond.cmp) {
      case Cmp::kEq:
        if (c != 0) return false;
        break;
      case Cmp::kNe:
        if (c == 0) return false;
        break;
      case Cmp::kLt:
        if (c >= 0) return false;
        break;
      case Cmp::kLe:
        if (c > 0) return false;
        break;
      case Cmp::kGt:
        if (c <= 0) return false;
        break;
      case Cmp::kGe:
        if (c < 0) return false;
        break;
    }
  }
  return true;
}

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
  state.zones.resize(schema->attrs().size());
  state.indexed.assign(schema->attrs().size(), 0);
  for (const IndexDef& def : schema->indices()) {
    state.indices.emplace_back(def);
    for (std::size_t attr_id : def.attr_ids) state.indexed[attr_id] = 1;
  }
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
  for (std::size_t a = 0; a < state.zones.size(); ++a) {
    if (!state.indexed[a]) continue;
    Zone& z = state.zones[a];
    const Value& v = stored.values[a];
    if (!z.init) {
      z.init = true;
      z.min = v;
      z.max = v;
    } else {
      if (compare_values(v, z.min) < 0) z.min = v;
      if (compare_values(v, z.max) > 0) z.max = v;
    }
  }
  if (sink_ != nullptr) sink_->on_insert(stored);
  for (CommitSink* obs : observers_) obs->on_insert(stored);
  return slot;
}

bool Container::can_match(const SchemaState& state,
                          const Filter& filter) const {
  const Schema& schema = *state.schema;
  for (const Condition& cond : filter) {
    const auto attr_id = schema.find_attr(cond.attr);
    // matches() rejects every object on an unknown attribute, so the
    // filter provably selects nothing.
    if (!attr_id) return false;
    if (!state.indexed[*attr_id]) continue;  // no zone for this attr
    const Zone& z = state.zones[*attr_id];
    if (!z.init) return false;  // no objects of this schema at all
    // Mixed-type comparisons order by variant index, not value; stay
    // conservative and only prune when the types line up.
    if (!value_matches_type(cond.value, schema.attrs()[*attr_id].type)) {
      continue;
    }
    const int vs_min = compare_values(cond.value, z.min);
    const int vs_max = compare_values(cond.value, z.max);
    switch (cond.cmp) {
      case Cmp::kEq:
        if (vs_min < 0 || vs_max > 0) return false;
        break;
      case Cmp::kNe:
        // Disjoint only when every value equals cond.value.
        if (vs_min == 0 && vs_max == 0) return false;
        break;
      case Cmp::kLt:  // need some obj < value  =>  min < value
        if (vs_min <= 0) return false;
        break;
      case Cmp::kLe:  // need min <= value
        if (vs_min < 0) return false;
        break;
      case Cmp::kGt:  // need max > value
        if (vs_max >= 0) return false;
        break;
      case Cmp::kGe:  // need max >= value
        if (vs_max > 0) return false;
        break;
    }
  }
  return true;
}

bool Container::can_match(std::string_view schema_name,
                          const Filter& filter) const {
  return can_match(schema_state(schema_name), filter);
}

std::vector<QueryHit> Container::query(std::string_view schema_name,
                                       std::string_view index_name,
                                       const Filter& filter,
                                       std::size_t limit) const {
  const SchemaState& state = schema_state(schema_name);
  const Schema& schema = *state.schema;
  const auto index_pos = schema.find_index(index_name);
  if (!index_pos) {
    throw std::out_of_range("dsos: unknown index " + std::string(index_name));
  }

  if (zone_maps_ && !filter.empty() && !can_match(state, filter)) {
    const util::LockGuard lock(stats_m_);
    ++zone_pruned_;
    last_scanned_ = 0;
    return {};
  }

  const Index& index = state.indices[*index_pos];
  const IndexDef& def = index.def();

  // Longest run of equality conditions covering the leading key attrs.
  std::vector<Value> leading;
  std::vector<bool> consumed(filter.size(), false);
  for (std::size_t key_pos = 0; key_pos < def.attr_ids.size(); ++key_pos) {
    const std::string& attr_name = schema.attrs()[def.attr_ids[key_pos]].name;
    bool found = false;
    for (std::size_t f = 0; f < filter.size(); ++f) {
      if (!consumed[f] && filter[f].cmp == Cmp::kEq &&
          filter[f].attr == attr_name) {
        leading.push_back(filter[f].value);
        consumed[f] = true;
        found = true;
        break;
      }
    }
    if (!found) break;
  }

  // Residual conditions (those not folded into the prefix).
  Filter residual;
  for (std::size_t f = 0; f < filter.size(); ++f) {
    if (!consumed[f]) residual.push_back(filter[f]);
  }

  // The limit can only bound the scan itself when every scanned entry is a
  // hit (no residual filter to drop entries afterwards).
  const std::size_t scan_cap = residual.empty() ? limit : 0;
  const std::vector<Index::Entry> entries =
      leading.empty()
          ? index.full_scan(scan_cap)
          : index.prefix_scan(encode_prefix(schema, def, leading), scan_cap);
  {
    const util::LockGuard lock(stats_m_);
    last_scanned_ = entries.size();
  }

  std::vector<QueryHit> hits;
  hits.reserve(limit != 0 ? std::min(limit, entries.size()) : entries.size());
  for (const auto& [key, slot] : entries) {
    const Object& obj = objects_[slot];
    if (residual.empty() || matches(obj, residual)) {
      hits.push_back(QueryHit{key, &obj});
      if (limit != 0 && hits.size() >= limit) break;
    }
  }
  return hits;
}

std::vector<const Object*> Container::select(std::string_view schema_name,
                                             std::string_view index_name,
                                             const Filter& filter,
                                             std::size_t limit) const {
  std::vector<const Object*> out;
  for (const QueryHit& hit : query(schema_name, index_name, filter, limit)) {
    out.push_back(hit.object);
  }
  return out;
}

}  // namespace dlc::dsos
