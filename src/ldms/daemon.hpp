// LDMSD: an LDMS daemon with a local stream bus and push-based forwarding.
//
// Mirrors the paper's deployment: sampler daemons on compute nodes push
// Darshan stream data one hop to the head-node aggregator, which pushes to
// a second-level aggregator on the analysis cluster (Shirley) where the
// storage plugin subscribes.  Forwarding is best-effort by default: each
// route has a bounded in-flight queue; overflow drops the message and
// bumps a counter (LDMS Streams has no resend).  Hop latency and per-byte
// transport cost advance virtual time.
//
// src/relia layers an optional at-least-once mode per route
// (ForwardConfig::delivery): messages a down or full route cannot take
// are retained in a bounded spool and redelivered by a reconnect prober
// (exponential backoff + circuit breaker) once the route heals.
// Deliveries made into an outage window are treated as
// delivered-without-ack — the publisher cannot see across a partition —
// so they are redelivered too and deduped downstream by sequence number
// (every publish stamps a per-(producer, tag) seq; see relia/seq.hpp).
//
// Fault injection: daemon-wide outage windows (crash), per-route windows
// (partition), forced enqueue rejections (queue overflow bursts) and
// restarts that truncate a window in progress; fault_inject.hpp drives
// these from a relia::FaultPlan.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ldms/message.hpp"
#include "ldms/stream_bus.hpp"
#include "relia/delivery.hpp"
#include "relia/reconnect.hpp"
#include "relia/spool.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"

namespace dlc::ldms {

struct ForwardConfig {
  /// Max messages queued on this route before drops begin.
  std::size_t queue_capacity = 4096;
  /// Max queued payload *bytes* on this route (0 => unlimited).  Message
  /// counts stop being a meaningful capacity once batching makes message
  /// sizes differ by orders of magnitude; a bytes cap models the real
  /// buffer limit and is fair across wire formats.
  std::size_t queue_capacity_bytes = 0;
  /// Per-hop transport latency.
  SimDuration hop_latency = 50 * kMicrosecond;
  /// Transport bandwidth for the payload (bytes/sec); 0 => unmetered.
  double bandwidth_bytes_per_sec = 1.0 * 1024 * 1024 * 1024;
  /// Delivery guarantee.  kBestEffort reproduces the paper's LDMS
  /// Streams; kAtLeastOnce spools what the route cannot take and
  /// redelivers after reconnect (requires an engine; inert without one).
  relia::DeliveryMode delivery = relia::DeliveryMode::kBestEffort;
  /// Spool bound for kAtLeastOnce.
  relia::SpoolConfig spool;
  /// Reconnect probing schedule for kAtLeastOnce.
  relia::BackoffConfig backoff;
  relia::BreakerConfig breaker;
};

class LdmsDaemon {
 public:
  /// `engine` may be null for pure real-thread use (no virtual transport).
  LdmsDaemon(sim::Engine* engine, std::string name);

  const std::string& name() const { return name_; }
  StreamBus& bus() { return bus_; }
  const StreamBus& bus() const { return bus_; }

  /// ldms_stream_publish: stamps times/producer/sequence and delivers to
  /// the local bus (whence forward routes pick it up).  Returns
  /// subscribers reached.  `trace` (optional) attaches the envelope half
  /// of a sampled pipeline trace; the daemon stamps Hop::kBusEnqueued and
  /// the forward pumps stamp the transport hops in transit.
  std::size_t publish(std::string_view tag, PayloadFormat format,
                      std::string payload,
                      const obs::TraceContext* trace = nullptr);
  /// Last sequence number publish() stamped on `tag`; 0 before the
  /// first publish.  End-of-run loss accounting compares it with the
  /// distinct sequences that arrived.
  std::uint64_t last_seq(std::string_view tag) const;

  /// Configures push-forwarding of `tag` to `upstream` (prdcr/updtr
  /// analogue).  Messages published to this daemon's bus with a matching
  /// tag are queued and delivered to the upstream daemon's bus after the
  /// modelled hop delay.
  void add_forward(const std::string& tag, LdmsDaemon& upstream,
                   ForwardConfig config = {});

  // --- fault injection --------------------------------------------------
  /// Daemon crash: during [start, end) every forward route of this daemon
  /// refuses new arrivals.  Best-effort drops them (LDMS has no
  /// reconnect/resend); at-least-once spools them for redelivery.
  /// Messages already queued keep draining — queue contents survive a
  /// transport outage.  Windows accumulate; a FaultPlan may crash the
  /// same daemon repeatedly.
  void add_outage(SimTime start, SimTime end);
  /// Operator restart at `t`: truncates any daemon-wide or route window
  /// covering `t` (later scheduled windows are untouched).
  void restart_at(SimTime t);
  /// Network partition: only the route(s) toward `upstream` refuse new
  /// arrivals during [start, end).
  void add_route_outage(const std::string& upstream, SimTime start,
                        SimTime end);
  /// Forces the next `count` enqueues on this daemon's routes from
  /// `at` onward to be rejected as if the queue were full.
  void inject_overflow(SimTime at, std::uint64_t count);

  bool in_outage() const;
  /// Messages lost to outage/partition windows (best-effort only; the
  /// at-least-once path spools instead).
  std::uint64_t outage_dropped() const;

  // --- transport statistics ---------------------------------------------
  /// Messages dropped across all routes of this daemon (queue overflow +
  /// outage losses + abandoned/evicted spool contents).
  std::uint64_t dropped() const;
  /// Messages successfully handed to upstream buses.
  std::uint64_t forwarded() const;
  /// Payload bytes successfully handed to upstream buses.
  std::uint64_t forwarded_bytes() const;
  /// Largest queue depth observed on any route (transport back-pressure).
  std::size_t max_queue_depth() const;
  /// Largest queued payload byte total observed on any route.
  std::size_t max_queue_bytes() const;

  // --- at-least-once statistics -----------------------------------------
  /// Messages retained in route spools (outage, breaker, overflow or
  /// lost-ack retention).
  std::uint64_t spooled() const;
  /// Spooled messages re-enqueued after reconnect.
  std::uint64_t redelivered() const;
  /// Spooled messages lost anyway: ring/file overflow eviction plus
  /// abandonment after BackoffConfig::max_attempts.
  std::uint64_t spool_evicted() const;
  /// Messages currently retained across route spools.
  std::size_t spool_depth() const;
  /// Reconnect probes that found the route still down.
  std::uint64_t failed_probes() const;

 private:
  struct Window {
    SimTime start = 0;
    SimTime end = 0;
  };

  struct Route {
    LdmsDaemon* upstream = nullptr;
    ForwardConfig config;
    std::deque<StreamMessage> queue;
    std::size_t queued_bytes = 0;
    bool pump_active = false;
    std::uint64_t dropped = 0;
    std::uint64_t outage_dropped = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t forwarded_bytes = 0;
    std::size_t max_depth = 0;
    std::size_t max_depth_bytes = 0;
    // Fault-injection state.
    std::vector<Window> outages;
    std::uint64_t forced_rejects = 0;
    // At-least-once state (constructed only when configured).
    std::unique_ptr<relia::MessageSpool> spool;
    relia::CircuitBreaker breaker;
    bool prober_active = false;
    std::uint64_t spooled = 0;
    std::uint64_t redelivered = 0;
    std::uint64_t failed_probes = 0;
    /// Spool evictions already mirrored into the obs registry (the spool
    /// itself only keeps an aggregate counter).
    std::uint64_t mirrored_evicted = 0;
  };

  struct OverflowInjection {
    SimTime at = 0;
    std::uint64_t remaining = 0;
  };

  bool at_least_once(const Route& route) const;
  bool route_down(const Route& route) const;
  bool queue_has_room(const Route& route, std::size_t bytes) const;
  void push_to_queue(Route& route, StreamMessage msg);
  void spool_message(Route& route, const StreamMessage& msg);
  /// Forwards new spool evictions to the dlc.transport.spool_evicted
  /// mirror (delta against Route::mirrored_evicted).
  void sync_spool_evicted(Route& route);
  void enqueue(Route& route, const StreamMessage& msg);
  sim::Task<void> pump(Route& route);
  sim::Task<void> reconnect_prober(Route& route);

  static bool in_windows(const std::vector<Window>& windows, SimTime now);
  static void truncate_windows(std::vector<Window>& windows, SimTime t);

  sim::Engine* engine_;
  std::string name_;
  StreamBus bus_;
  std::vector<Window> outages_;
  std::uint64_t outage_dropped_ = 0;
  std::vector<OverflowInjection> overflow_injections_;
  /// Per-tag publish sequence counters (seq starts at 1).
  std::map<std::string, std::uint64_t, std::less<>> next_seq_;
  /// Jitter source for reconnect backoff; seeded from the daemon name so
  /// a fleet recovering together still fans out deterministically.
  Rng rng_;
  // Stable addresses: routes are captured by reference in pump coroutines.
  std::vector<std::unique_ptr<Route>> routes_;
};

}  // namespace dlc::ldms
