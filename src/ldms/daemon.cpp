#include "ldms/daemon.hpp"

#include <algorithm>

#include "ldms/metrics.hpp"
#include "obs/registry.hpp"
#include "util/log.hpp"

namespace dlc::ldms {

namespace {

// Process-wide mirrors of the per-daemon transport counters, under the
// canonical "dlc.transport.*" names shared with TransportHealthSampler
// (see metrics.hpp).  Counters aggregate over every daemon in the
// process; the depth channels are high-watermark gauges.  References are
// resolved once — the hot path pays one enabled() branch plus a relaxed
// atomic per bump.
struct TransportObs {
  obs::Counter& forwarded;
  obs::Counter& forwarded_bytes;
  obs::Counter& dropped;
  obs::Counter& outage_dropped;
  obs::Counter& spooled;
  obs::Counter& redelivered;
  obs::Counter& spool_evicted;
  obs::Gauge& max_queue_depth;
  obs::Gauge& max_queue_bytes;
  obs::Gauge& spool_depth;
};

TransportObs& transport_obs() {
  using C = TransportChannel;
  obs::Registry& reg = obs::Registry::global();
  static TransportObs t{
      reg.counter(transport_metric_name(C::kForwarded)),
      reg.counter(transport_metric_name(C::kForwardedBytes)),
      reg.counter(transport_metric_name(C::kDropped)),
      reg.counter(transport_metric_name(C::kOutageDropped)),
      reg.counter(transport_metric_name(C::kSpooled)),
      reg.counter(transport_metric_name(C::kRedelivered)),
      reg.counter(transport_metric_name(C::kSpoolEvicted)),
      reg.gauge(transport_metric_name(C::kMaxQueueDepth)),
      reg.gauge(transport_metric_name(C::kMaxQueueBytes)),
      reg.gauge(transport_metric_name(C::kSpoolDepth)),
  };
  return t;
}

}  // namespace

LdmsDaemon::LdmsDaemon(sim::Engine* engine, std::string name)
    : engine_(engine), name_(std::move(name)), rng_(fnv1a64(name_)) {}

std::size_t LdmsDaemon::publish(std::string_view tag, PayloadFormat format,
                                std::string payload,
                                const obs::TraceContext* trace) {
  StreamMessage msg;
  msg.tag = std::string(tag);
  msg.format = format;
  msg.payload = std::move(payload);
  msg.producer = name_;
  msg.seq = ++next_seq_[msg.tag];
  if (engine_) {
    msg.publish_time = engine_->now();
    msg.deliver_time = engine_->now();
  }
  if (trace != nullptr && trace->sampled()) {
    msg.trace = *trace;
    msg.trace.stamp(obs::Hop::kBusEnqueued,
                    engine_ ? engine_->now()
                            : msg.trace.hop(obs::Hop::kPublished));
  }
  return bus_.publish(msg);
}

void LdmsDaemon::add_forward(const std::string& tag, LdmsDaemon& upstream,
                             ForwardConfig config) {
  routes_.push_back(std::make_unique<Route>());
  Route* route = routes_.back().get();
  route->upstream = &upstream;
  route->config = config;
  if (config.delivery == relia::DeliveryMode::kAtLeastOnce) {
    route->spool = std::make_unique<relia::MessageSpool>(config.spool);
    route->breaker.configure(config.breaker);
  }
  bus_.subscribe(tag,
                 [this, route](const StreamMessage& msg) { enqueue(*route, msg); });
}

// --- fault injection ------------------------------------------------------

void LdmsDaemon::add_outage(SimTime start, SimTime end) {
  if (end <= start) return;
  outages_.push_back({start, end});
}

void LdmsDaemon::restart_at(SimTime t) {
  truncate_windows(outages_, t);
  for (const auto& r : routes_) truncate_windows(r->outages, t);
}

void LdmsDaemon::add_route_outage(const std::string& upstream, SimTime start,
                                  SimTime end) {
  if (end <= start) return;
  for (const auto& r : routes_) {
    if (r->upstream && r->upstream->name() == upstream) {
      r->outages.push_back({start, end});
    }
  }
}

void LdmsDaemon::inject_overflow(SimTime at, std::uint64_t count) {
  if (count == 0) return;
  overflow_injections_.push_back({at, count});
}

bool LdmsDaemon::in_windows(const std::vector<Window>& windows, SimTime now) {
  for (const Window& w : windows) {
    if (now >= w.start && now < w.end) return true;
  }
  return false;
}

void LdmsDaemon::truncate_windows(std::vector<Window>& windows, SimTime t) {
  for (Window& w : windows) {
    if (w.start < t && w.end > t) w.end = t;
  }
}

bool LdmsDaemon::in_outage() const {
  return engine_ && in_windows(outages_, engine_->now());
}

bool LdmsDaemon::route_down(const Route& route) const {
  if (!engine_) return false;
  return in_outage() || in_windows(route.outages, engine_->now());
}

// --- forwarding -----------------------------------------------------------

bool LdmsDaemon::at_least_once(const Route& route) const {
  // The spool/prober machinery rides the virtual clock; without an engine
  // the route degrades to best-effort (documented in ForwardConfig).
  return route.spool != nullptr && engine_ != nullptr;
}

bool LdmsDaemon::queue_has_room(const Route& route, std::size_t bytes) const {
  if (route.queue.size() >= route.config.queue_capacity) return false;
  if (route.config.queue_capacity_bytes > 0 &&
      bytes > route.config.queue_capacity_bytes - route.queued_bytes) {
    return false;
  }
  return true;
}

void LdmsDaemon::push_to_queue(Route& route, StreamMessage msg) {
  if (!engine_) {
    // No virtual transport: deliver inline (degenerate zero-latency hop).
    ++msg.hops;
    if (msg.trace.sampled()) {
      msg.trace.stamp(msg.hops == 1 ? obs::Hop::kDaemonForwarded
                                    : obs::Hop::kAggregated,
                      msg.deliver_time);
    }
    route.forwarded_bytes += msg.payload.size();
    route.upstream->bus().publish(msg);
    ++route.forwarded;
    if (obs::enabled()) {
      transport_obs().forwarded.add();
      transport_obs().forwarded_bytes.add(msg.payload.size());
    }
    return;
  }
  route.queued_bytes += msg.payload.size();
  route.queue.push_back(std::move(msg));
  route.max_depth = std::max(route.max_depth, route.queue.size());
  route.max_depth_bytes = std::max(route.max_depth_bytes, route.queued_bytes);
  if (obs::enabled()) {
    transport_obs().max_queue_depth.set_max(
        static_cast<std::int64_t>(route.max_depth));
    transport_obs().max_queue_bytes.set_max(
        static_cast<std::int64_t>(route.max_depth_bytes));
  }
  if (!route.pump_active) {
    route.pump_active = true;
    engine_->spawn(pump(route));
  }
}

void LdmsDaemon::sync_spool_evicted(Route& route) {
  if (!route.spool || !obs::enabled()) return;
  const std::uint64_t evicted = route.spool->evicted();
  if (evicted > route.mirrored_evicted) {
    transport_obs().spool_evicted.add(evicted - route.mirrored_evicted);
    route.mirrored_evicted = evicted;
  }
}

void LdmsDaemon::spool_message(Route& route, const StreamMessage& msg) {
  ++route.spooled;
  route.spool->append(msg);
  if (obs::enabled()) {
    transport_obs().spooled.add();
    transport_obs().spool_depth.set_max(
        static_cast<std::int64_t>(route.spool->size()));
  }
  sync_spool_evicted(route);
  if (!route.prober_active) {
    route.prober_active = true;
    engine_->spawn(reconnect_prober(route));
  }
}

void LdmsDaemon::enqueue(Route& route, const StreamMessage& msg) {
  const bool alo = at_least_once(route);

  // Injected queue-overflow burst: reject as if the route buffer were
  // momentarily full.
  bool forced_overflow = false;
  if (engine_ && !overflow_injections_.empty()) {
    for (OverflowInjection& inj : overflow_injections_) {
      if (inj.remaining > 0 && engine_->now() >= inj.at) {
        --inj.remaining;
        forced_overflow = true;
        break;
      }
    }
  }

  if (route_down(route)) {
    if (alo) {
      route.breaker.record_failure(engine_->now());
      spool_message(route, msg);  // retained: redelivered after reconnect
    } else if (in_outage()) {
      ++outage_dropped_;  // transport down: the message is simply gone
      if (obs::enabled()) transport_obs().outage_dropped.add();
    } else {
      ++route.outage_dropped;  // partition on this route only
      if (obs::enabled()) transport_obs().outage_dropped.add();
    }
    return;
  }
  if (alo && !route.breaker.allow(engine_->now())) {
    spool_message(route, msg);  // breaker open: don't hammer a dead peer
    return;
  }
  if (forced_overflow || !queue_has_room(route, msg.payload.size())) {
    if (alo) {
      spool_message(route, msg);  // absorbed: retried once the queue drains
    } else {
      ++route.dropped;  // best effort: no resend, no back-pressure
      if (obs::enabled()) transport_obs().dropped.add();
    }
    return;
  }
  push_to_queue(route, msg);
}

sim::Task<void> LdmsDaemon::pump(Route& route) {
  // Drains the route queue, modelling per-message hop cost; exits when the
  // queue is empty (re-spawned on the next enqueue).
  while (!route.queue.empty()) {
    StreamMessage msg = std::move(route.queue.front());
    route.queue.pop_front();
    route.queued_bytes -= msg.payload.size();
    SimDuration cost = route.config.hop_latency;
    if (route.config.bandwidth_bytes_per_sec > 0) {
      cost += static_cast<SimDuration>(
          static_cast<double>(msg.payload.size()) /
          route.config.bandwidth_bytes_per_sec *
          static_cast<double>(kSecond));
    }
    co_await engine_->delay(cost);
    msg.deliver_time = engine_->now();
    ++msg.hops;
    if (msg.trace.sampled()) {
      // First transport hop is node -> L1 (daemon_forwarded); the second
      // is L1 -> L2 (aggregated).  A redelivered copy re-stamps with the
      // later time, which is the arrival the decoder actually sees.
      msg.trace.stamp(msg.hops == 1 ? obs::Hop::kDaemonForwarded
                                    : obs::Hop::kAggregated,
                      msg.deliver_time);
    }
    route.forwarded_bytes += msg.payload.size();
    route.upstream->bus().publish(msg);
    ++route.forwarded;
    if (obs::enabled()) {
      transport_obs().forwarded.add();
      transport_obs().forwarded_bytes.add(msg.payload.size());
    }
    if (at_least_once(route) && route_down(route)) {
      // Delivered into an outage/partition window: the ack never makes it
      // back, so the message stays unacked and will be redelivered after
      // reconnect — the duplicate the decode-side SequenceTracker dedups.
      spool_message(route, msg);
    }
  }
  route.pump_active = false;
}

sim::Task<void> LdmsDaemon::reconnect_prober(Route& route) {
  // Probes the route on the backoff schedule and drains the spool back
  // into the queue once the route heals; exits when the spool is empty or
  // after max_attempts consecutive no-progress probes (give-up).
  int attempt = 0;
  const relia::BackoffConfig& backoff = route.config.backoff;
  while (true) {
    co_await engine_->delay(relia::backoff_delay(backoff, attempt, rng_));
    ++attempt;
    const SimTime now = engine_->now();
    if (route_down(route)) {
      ++route.failed_probes;
      route.breaker.record_failure(now);
    } else if (route.breaker.allow(now)) {
      bool progressed = false;
      while (!route.spool->empty()) {
        // Peek-free two-step: pop, then re-append if the queue is full
        // (spool order is preserved because nothing else appends while
        // the route is healthy and the queue is full).
        auto msg = route.spool->pop_front();
        if (!msg) break;
        if (!queue_has_room(route, msg->payload.size())) {
          route.spool->append(std::move(*msg));
          break;
        }
        ++route.redelivered;
        if (obs::enabled()) transport_obs().redelivered.add();
        push_to_queue(route, std::move(*msg));
        progressed = true;
      }
      if (progressed) {
        route.breaker.record_success();
        attempt = 0;  // fresh backoff for the next stall
      }
      sync_spool_evicted(route);
      if (route.spool->empty()) break;
    }
    if (backoff.max_attempts > 0 && attempt >= backoff.max_attempts) {
      // Permanently dead route: abandon the spool (counted as evicted)
      // rather than probing virtual time forever.
      route.spool->clear();
      sync_spool_evicted(route);
      break;
    }
  }
  route.prober_active = false;
}

// --- statistics -----------------------------------------------------------

std::uint64_t LdmsDaemon::outage_dropped() const {
  std::uint64_t total = outage_dropped_;
  for (const auto& r : routes_) total += r->outage_dropped;
  return total;
}

std::uint64_t LdmsDaemon::dropped() const {
  std::uint64_t total = outage_dropped_;
  for (const auto& r : routes_) {
    total += r->dropped + r->outage_dropped;
    if (r->spool) total += r->spool->evicted();
  }
  return total;
}

std::uint64_t LdmsDaemon::forwarded() const {
  std::uint64_t total = 0;
  for (const auto& r : routes_) total += r->forwarded;
  return total;
}

std::uint64_t LdmsDaemon::forwarded_bytes() const {
  std::uint64_t total = 0;
  for (const auto& r : routes_) total += r->forwarded_bytes;
  return total;
}

std::size_t LdmsDaemon::max_queue_depth() const {
  std::size_t depth = 0;
  for (const auto& r : routes_) depth = std::max(depth, r->max_depth);
  return depth;
}

std::size_t LdmsDaemon::max_queue_bytes() const {
  std::size_t bytes = 0;
  for (const auto& r : routes_) bytes = std::max(bytes, r->max_depth_bytes);
  return bytes;
}

std::uint64_t LdmsDaemon::spooled() const {
  std::uint64_t total = 0;
  for (const auto& r : routes_) total += r->spooled;
  return total;
}

std::uint64_t LdmsDaemon::redelivered() const {
  std::uint64_t total = 0;
  for (const auto& r : routes_) total += r->redelivered;
  return total;
}

std::uint64_t LdmsDaemon::spool_evicted() const {
  std::uint64_t total = 0;
  for (const auto& r : routes_) {
    if (r->spool) total += r->spool->evicted();
  }
  return total;
}

std::size_t LdmsDaemon::spool_depth() const {
  std::size_t total = 0;
  for (const auto& r : routes_) {
    if (r->spool) total += r->spool->size();
  }
  return total;
}

std::uint64_t LdmsDaemon::failed_probes() const {
  std::uint64_t total = 0;
  for (const auto& r : routes_) total += r->failed_probes;
  return total;
}

}  // namespace dlc::ldms
