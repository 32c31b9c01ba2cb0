// DSOS container: object storage for one or more schemas with their
// ordered indices, plus the equality query that reads them.
//
// Every query is a conjunction of equalities.  Its longest run covering
// an index's leading attributes is one ordered prefix scan of that
// index (an empty run scans every row); the rest are checked per row.
// Both parts compare index-key bytes (dsos/index.hpp), so a condition
// means the same thing wherever it sits in the filter.  Index keys are
// interned into a per-container Arena (one container == one dsosd shard,
// so this is the per-shard arena).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dsos/arena.hpp"
#include "dsos/index.hpp"
#include "dsos/schema.hpp"
#include "util/thread_annotations.hpp"

namespace dlc::dsos {

/// One equality: attribute `attr` holds `value`.
struct Condition {
  std::string attr;
  Value value;
};

/// Conjunction of conditions (DSOS filter expressions are ANDs).
using Filter = std::vector<Condition>;

struct QueryHit {
  std::string_view key;  // encoded index key (arena-owned; valid while the
                         // container lives — used for cross-shard merging)
  const Object* object;  // borrowed from the container
};

/// Persistence hook mounted *under* the container API: a sink observes
/// every insert and owns the durability of commit().  dsos knows only
/// this interface — the store subsystem implements it, so ingest and
/// query call sites never change when durability is switched on.
class CommitSink {
 public:
  virtual ~CommitSink() = default;
  /// Called after `obj` is stored and indexed (same thread as insert();
  /// the single-writer-per-shard contract extends to the sink).
  virtual void on_insert(const Object& obj) = 0;
  /// Flushes buffered rows; true when everything inserted so far is
  /// durable on return.
  virtual bool on_commit() = 0;
};

class Container {
 public:
  Container() = default;

  /// Not movable: an attached commit sink and the observers hold this
  /// container's address (Store::open, RollupEngine), so a move would
  /// leave them feeding from — or detaching — the wrong object.
  Container(Container&&) = delete;
  Container& operator=(Container&&) = delete;

  /// Registers a schema; objects of unregistered schemas are rejected.
  void register_schema(SchemaPtr schema);
  SchemaPtr schema(std::string_view name) const;

  /// Inserts an object and updates all of its schema's indices.  Returns
  /// the object slot.  Single-writer (the ingest executor guarantees one
  /// writer per shard/container).
  std::size_t insert(Object obj);

  std::size_t size() const { return objects_.size(); }
  const Object& object(std::size_t slot) const { return objects_[slot]; }

  /// Index-ordered query: the longest run of conditions covering the
  /// index's leading attributes is scanned as one byte prefix, and each
  /// remaining condition is checked per row.  A condition equals a value
  /// when both encode to the same index-key bytes.  Throws
  /// std::invalid_argument when a condition's value type differs from its
  /// attribute's; a condition on an attribute the schema lacks matches no
  /// row.
  std::vector<QueryHit> query(std::string_view schema_name,
                              std::string_view index_name,
                              const Filter& filter = {}) const;

  /// Convenience: query returning objects only.
  std::vector<const Object*> select(std::string_view schema_name,
                                    std::string_view index_name,
                                    const Filter& filter = {}) const;

  /// Diagnostic: how many index entries were scanned by the last query on
  /// this container (measures joint-index selectivity; bench_dsos).
  std::uint64_t last_scanned() const {
    const util::LockGuard lock(stats_m_);
    return last_scanned_;
  }

  /// Attaches (or, with nullptr, detaches) the persistence sink.
  /// Replacing a live sink with a different one throws — two stores
  /// attached to one container would each claim the same rows, so the
  /// first must be close()d before the second opens.
  void set_commit_sink(CommitSink* sink);
  CommitSink* commit_sink() const { return sink_; }

  /// Non-owning commit observers, notified after the durability sink on
  /// every insert and — only when the sink's flush succeeded — on every
  /// commit().  Unlike the sink slot (exclusive:
  /// the store claims the rows), any number of observers may coexist —
  /// the rollup engine mounts its per-shard decomposition sinks here.
  /// Same threading contract as the sink: callbacks run on the shard's
  /// single writer thread.
  void add_observer(CommitSink* observer);
  void remove_observer(CommitSink* observer);

  /// Durability barrier: forwards to the sink FIRST and notifies
  /// observers only after the flush succeeds (same order as insert()).
  /// Anything an observer durably derives from this batch — rollup
  /// spills of sealed cells — therefore never covers raw rows the
  /// store lost to a torn WAL frame; a crash inside the sink leaves
  /// observers un-notified and their state strictly behind the raw
  /// store, which recovery rebuilds forward.  True when the sink
  /// reports all rows durable; false when no sink is attached (memory
  /// mode: nothing is ever durable, observers still run — there is no
  /// durability to order against) or the flush failed (observers are
  /// skipped; the batch is never acked, and the store that failed to
  /// write it is dead — an at-least-once driver resubmits from its
  /// recovered frontier).
  bool commit() {
    if (sink_ != nullptr) {
      if (!sink_->on_commit()) return false;
      for (CommitSink* obs : observers_) obs->on_commit();
      return true;
    }
    for (CommitSink* obs : observers_) obs->on_commit();
    return false;
  }

 private:
  struct SchemaState {
    SchemaPtr schema;
    std::vector<Index> indices;
  };

  const SchemaState& schema_state(std::string_view name) const;

  // Object/index state is single-writer by contract (the ingest
  // executor gives each Container exactly one inserting worker) and
  // read-stable during queries, so it carries no lock.  The mutable QUERY
  // DIAGNOSTIC below is different: const query() mutates it, and the
  // cluster runs per-shard queries on real threads — two concurrent
  // queries against the same container raced on it until the annotation
  // migration surfaced it.  It gets its own leaf mutex.
  std::deque<Object> objects_;
  std::map<std::string, SchemaState, std::less<>> schemas_;
  Arena key_arena_;
  CommitSink* sink_ = nullptr;  // borrowed; single-writer, like objects_
  std::vector<CommitSink*> observers_;  // borrowed; single-writer
  mutable util::Mutex stats_m_{"ContainerStats"};
  mutable std::uint64_t last_scanned_ DLC_GUARDED_BY(stats_m_) = 0;
};

}  // namespace dlc::dsos
