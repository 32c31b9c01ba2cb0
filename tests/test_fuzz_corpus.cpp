// Tier-1 coverage of the fuzz surface: every checked-in seed corpus
// file runs through its fuzz target (the targets abort on invariant
// violation, so a regression crashes the test), plus a deterministic
// mutation sweep per target so the decoders face adversarial bytes in
// every CI run, not just in the fuzz-smoke job.  Crash artifacts found
// by fuzzing get checked into the corpus and are pinned here forever.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "fuzz/targets.hpp"
#include "wire/codec.hpp"

#ifndef DLC_CORPUS_DIR
#error "DLC_CORPUS_DIR must point at tests/corpus"
#endif

namespace dlc {
namespace {

namespace fsys = std::filesystem;

using FuzzTarget = int (*)(const std::uint8_t*, std::size_t);

std::vector<std::vector<std::uint8_t>> load_corpus(const std::string& name) {
  const fsys::path dir = fsys::path(DLC_CORPUS_DIR) / name;
  std::vector<std::vector<std::uint8_t>> corpus;
  for (const auto& entry : fsys::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  return corpus;
}

/// Runs the corpus, then `mutations` deterministic xorshift mutations of
/// it (same scheme as fuzz/standalone_main.cpp, fixed seed: failures
/// reproduce by re-running the test).
void run_corpus(const std::string& name, FuzzTarget target,
                int mutations) {
  const auto corpus = load_corpus(name);
  ASSERT_FALSE(corpus.empty()) << "empty corpus dir: " << name;
  for (const auto& input : corpus) {
    target(input.data(), input.size());
  }
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int i = 0; i < mutations; ++i) {
    std::vector<std::uint8_t> buf = corpus[next() % corpus.size()];
    const std::uint64_t r = next();
    switch (r % 3) {
      case 0:
        if (!buf.empty()) buf[next() % buf.size()] ^= 1u << ((r >> 8) % 8);
        break;
      case 1:
        if (!buf.empty()) buf.resize(next() % buf.size());
        break;
      case 2:
        buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(
                                     buf.empty() ? 0 : next() % buf.size()),
                   static_cast<std::uint8_t>(r >> 16));
        break;
    }
    target(buf.data(), buf.size());
  }
}

TEST(FuzzCorpus, FrameCursorSeedsAndMutations) {
  run_corpus("frame_cursor", fuzz::frame_cursor_one, 400);
}

TEST(FuzzCorpus, JsonScannerSeedsAndMutations) {
  run_corpus("json_scanner", fuzz::json_scanner_one, 400);
}

TEST(FuzzCorpus, RollupPolicySeedsAndMutations) {
  run_corpus("rollup_policy", fuzz::rollup_policy_one, 400);
}

TEST(FuzzCorpus, StoreRecoverySeedsAndMutations) {
  // Each input builds, mutates and re-opens a store directory twice, so
  // the sweep here is smaller; the fuzz-smoke job runs the long leg.
  run_corpus("store_recovery", fuzz::store_recovery_one, 24);
}

TEST(FuzzCorpus, DarshanLogSeedsAndMutations) {
  run_corpus("darshan_log", fuzz::darshan_log_one, 400);
}

// The binary frame corpus must stay decodable as the codec evolves: a
// freshly encoded frame exercises the accept path even if every
// checked-in .frame seed predates a wire-format bump, and at least one
// seed must still parse with the current decoder (corpus freshness).
TEST(FuzzCorpus, FrameCorpusStaysFresh) {
  wire::EncodeContext ctx;
  ctx.uid = 1;
  ctx.job_id = 2;
  ctx.exe = "/bin/app";
  ctx.epoch_seconds = 1e9;
  wire::FrameEncoder enc(ctx);
  darshan::IoEvent e;
  e.end = 1000;
  enc.add(e, "nid0");
  const std::string frame = enc.take_frame();
  fuzz::frame_cursor_one(reinterpret_cast<const std::uint8_t*>(frame.data()),
                         frame.size());

  bool any_valid = false;
  for (const auto& seed : load_corpus("frame_cursor")) {
    const std::string_view sv(reinterpret_cast<const char*>(seed.data()),
                              seed.size());
    if (wire::decode_frame_seq(sv) != 0) any_valid = true;
  }
  EXPECT_TRUE(any_valid)
      << "no frame_cursor seed parses anymore - regenerate the corpus";
}

}  // namespace
}  // namespace dlc
