// Delivery-guarantee selection for the stream transport.
//
// LDMS Streams as shipped is best-effort — "without a reconnect or resend
// for the data ... no caching" — so every queue overflow or daemon outage
// silently loses connector events.  src/relia layers a selectable
// at-least-once mode on top: publishes are sequenced, unacked messages are
// retained in a bounded spool, and a reconnect prober redelivers them once
// the route heals.  Redelivery can duplicate (acks lost crossing a
// partition), so the decode side dedups by (producer, seq); see seq.hpp.
#pragma once

#include <cstdint>

namespace dlc::relia {

enum class DeliveryMode : std::uint8_t {
  /// The paper's LDMS Streams semantics: drop on overflow/outage, never
  /// resend.  Loss is counted but unrecoverable.
  kBestEffort = 0,
  /// Spool unacked messages per route and redeliver after reconnect.
  /// Guarantees delivery while the spool bound holds; duplicates are
  /// possible and deduped downstream by sequence number.
  kAtLeastOnce = 1,
};

}  // namespace dlc::relia
