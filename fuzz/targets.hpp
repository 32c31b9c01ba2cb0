// Fuzz entry points for every untrusted decode surface (ISSUE/DESIGN
// section 10): each *_one() consumes arbitrary bytes and aborts the
// process on any invariant violation — crash, hang guard, decoder
// disagreement — so the same body serves libFuzzer harnesses, the
// standalone corpus driver, and the tier-1 corpus round-trip test.
//
//   frame_cursor_one    wire::FrameCursor vs wire::decode_frame on raw
//                       bytes: never crashes, wrapper agrees with cursor.
//   json_scanner_one    json::Scanner DOM-subset contract: a cleanly
//                       scanned object parses, with the same values.
//   rollup_policy_one   rollup policy DSL: parse never throws; every
//                       accepted policy round-trips through to_string.
//   store_recovery_one  store recovery on a mutated on-disk store dir:
//                       open() truncates, never crashes; recovery is
//                       idempotent (second open yields the same rows).
//   darshan_log_one     darshan::read_log on raw bytes: never crashes or
//                       throws; an accepted log re-encodes to bytes that
//                       read back and re-encode identically.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dlc::fuzz {

int frame_cursor_one(const std::uint8_t* data, std::size_t size);
int json_scanner_one(const std::uint8_t* data, std::size_t size);
int rollup_policy_one(const std::uint8_t* data, std::size_t size);
int store_recovery_one(const std::uint8_t* data, std::size_t size);
int darshan_log_one(const std::uint8_t* data, std::size_t size);

}  // namespace dlc::fuzz
