// Chunked bump allocator backing per-shard storage-side byte buffers.
//
// Every `dsos::Container` (one per dsosd shard) owns an Arena that its
// indices intern encoded composite keys into: instead of one heap
// allocation per key per index (a 24-byte job_rank_time key defeats SSO),
// keys are appended to 64 KiB chunks and referenced by `string_view`.
// Chunks never move or shrink, so interned views stay valid for the
// container's lifetime — the same lifetime rule the zero-copy decode path
// relies on for payload-backed record views (see core/decoder.hpp).
//
// Single-writer by design: the ingest executor guarantees one writer per
// shard, so the arena needs no locking (mirrors Container::insert).
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace dlc::dsos {

class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = 64 * 1024)
      : chunk_bytes_(chunk_bytes ? chunk_bytes : 1) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  // Movable: chunks are unique_ptrs, so interned views stay valid across
  // a move (the bytes themselves never relocate).
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// Allocates `n` bytes (uninitialised, char-aligned); never returns
  /// nullptr for n > 0.  Oversized requests get a dedicated chunk and
  /// leave the open chunk filling.
  char* alloc(std::size_t n) {
    if (n == 0) return nullptr;
    if (n > chunk_bytes_) {
      big_chunks_.push_back(std::make_unique<char[]>(n));
      return big_chunks_.back().get();
    }
    if (chunks_.empty() || chunk_used_ + n > chunk_bytes_) {
      chunks_.push_back(std::make_unique<char[]>(chunk_bytes_));
      chunk_used_ = 0;
    }
    char* p = chunks_.back().get() + chunk_used_;
    chunk_used_ += n;
    return p;
  }

  /// Copies `bytes` into the arena and returns a stable view of the copy.
  std::string_view intern(std::string_view bytes) {
    if (bytes.empty()) return {};
    char* p = alloc(bytes.size());
    std::memcpy(p, bytes.data(), bytes.size());
    return {p, bytes.size()};
  }

 private:
  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::vector<std::unique_ptr<char[]>> big_chunks_;
  std::size_t chunk_used_ = 0;
};

}  // namespace dlc::dsos
