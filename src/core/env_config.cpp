#include "core/env_config.hpp"

#include <charconv>
#include <cstdlib>

#include "util/cpu.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace dlc::core {

namespace {

// from_chars on uint64_t rejects exactly what the hardening contract
// wants rejected: a leading '-' (invalid_argument — negatives never
// silently wrap), values past 2^64-1 (result_out_of_range), and any
// trailing garbage ("12x") via the end-pointer check.
bool parse_u64(const std::string& s, std::uint64_t& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && p == s.data() + s.size();
}

bool parse_f64(const std::string& s, double& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && p == s.data() + s.size();
}

/// Upper bound on DARSHAN_LDMS_INGEST_THREADS.  A typo'd but lexically
/// valid value ("10000000") would otherwise make IngestExecutor try to
/// spawn that many OS threads; anything past this is treated like
/// garbage — error recorded, default kept.
constexpr std::uint64_t kMaxIngestThreads = 1024;

/// Records a rejected variable: kept in EnvConfig::errors for callers
/// that surface them programmatically, and logged immediately so a
/// deployment running with defaults can see why ("logged fallback").
void reject(EnvConfig& cfg, const char* name, const std::string& value) {
  cfg.errors.push_back(std::string(name) + "=" + value);
  DLC_LOG_WARN << "env_config: ignoring " << name << "=\"" << value
               << "\" (unparsable or out of range); keeping default";
}

}  // namespace

std::string_view wire_format_name(WireFormat f) {
  switch (f) {
    case WireFormat::kJson:
      return "json";
    case WireFormat::kBinary:
      return "binary";
    case WireFormat::kBinaryBatched:
      return "binary_batched";
  }
  return "?";
}

bool wire_format_from_name(std::string_view name, WireFormat& out) {
  if (name == "json") {
    out = WireFormat::kJson;
  } else if (name == "binary") {
    out = WireFormat::kBinary;
  } else if (name == "binary_batched") {
    out = WireFormat::kBinaryBatched;
  } else {
    return false;
  }
  return true;
}

EnvConfig connector_config_from_env(const EnvGetter& getenv_fn) {
  const EnvGetter get =
      getenv_fn ? getenv_fn
                : [](const char* name) { return std::getenv(name); };
  EnvConfig cfg;

  if (const char* v = get("DARSHAN_LDMS_ENABLE")) {
    cfg.enabled = std::string(v) != "0";
  }
  if (const char* v = get("DARSHAN_LDMS_STREAM")) {
    if (*v != '\0') {
      cfg.connector.stream_tag = v;
    } else {
      reject(cfg, "DARSHAN_LDMS_STREAM", "");
    }
  }
  if (const char* v = get("DARSHAN_LDMS_FORMAT")) {
    const std::string mode(v);
    if (mode == "snprintf") {
      cfg.connector.format = FormatMode::kSnprintfJson;
    } else if (mode == "fast") {
      cfg.connector.format = FormatMode::kFastJson;
    } else if (mode == "none") {
      cfg.connector.format = FormatMode::kNone;
    } else {
      reject(cfg, "DARSHAN_LDMS_FORMAT", mode);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_WIRE_FORMAT")) {
    if (!wire_format_from_name(v, cfg.connector.wire_format)) {
      reject(cfg, "DARSHAN_LDMS_WIRE_FORMAT", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_BATCH_EVENTS")) {
    std::uint64_t n;
    if (parse_u64(v, n) && n >= 1) {
      cfg.connector.batch.max_events = static_cast<std::size_t>(n);
    } else {
      reject(cfg, "DARSHAN_LDMS_BATCH_EVENTS", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_BATCH_BYTES")) {
    std::uint64_t n;
    if (parse_u64(v, n) && n >= 1) {
      cfg.connector.batch.max_bytes = static_cast<std::size_t>(n);
    } else {
      reject(cfg, "DARSHAN_LDMS_BATCH_BYTES", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_BATCH_DELAY_US")) {
    std::uint64_t us;
    if (parse_u64(v, us)) {
      cfg.connector.batch.max_delay =
          static_cast<SimDuration>(us) * kMicrosecond;
    } else {
      reject(cfg, "DARSHAN_LDMS_BATCH_DELAY_US", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_SAMPLE_N")) {
    std::uint64_t n;
    if (parse_u64(v, n) && n >= 1) {
      cfg.connector.sample_every_n = n;
    } else {
      reject(cfg, "DARSHAN_LDMS_SAMPLE_N", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_MIN_INTERVAL_US")) {
    std::uint64_t us;
    if (parse_u64(v, us)) {
      cfg.connector.min_publish_interval =
          static_cast<SimDuration>(us) * kMicrosecond;
    } else {
      reject(cfg, "DARSHAN_LDMS_MIN_INTERVAL_US", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_DELIVERY")) {
    if (!relia::delivery_mode_from_name(v, cfg.connector.delivery)) {
      reject(cfg, "DARSHAN_LDMS_DELIVERY", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_SPOOL_MSGS")) {
    std::uint64_t n;
    if (parse_u64(v, n) && n >= 1) {
      cfg.connector.spool.max_msgs = static_cast<std::size_t>(n);
    } else {
      reject(cfg, "DARSHAN_LDMS_SPOOL_MSGS", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_SPOOL_BYTES")) {
    std::uint64_t n;
    if (parse_u64(v, n)) {
      cfg.connector.spool.max_bytes = static_cast<std::size_t>(n);
    } else {
      reject(cfg, "DARSHAN_LDMS_SPOOL_BYTES", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_INGEST_THREADS")) {
    std::uint64_t n;
    if (parse_u64(v, n) && n <= kMaxIngestThreads) {
      cfg.connector.ingest_threads = static_cast<std::size_t>(n);
    } else {
      reject(cfg, "DARSHAN_LDMS_INGEST_THREADS", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_TRACE_SAMPLE")) {
    std::uint64_t n;
    if (parse_u64(v, n)) {
      cfg.connector.trace_sample_n = n;
    } else {
      reject(cfg, "DARSHAN_LDMS_TRACE_SAMPLE", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_PIN")) {
    util::PinPolicy policy;
    if (util::parse_pin_policy(v, policy)) {
      cfg.connector.pin = v;
    } else {
      reject(cfg, "DARSHAN_LDMS_PIN", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_FASTPATH")) {
    const std::string mode(v);
    if (mode == "auto" || mode == "on" || mode == "off") {
      cfg.connector.fastpath = mode;
    } else {
      reject(cfg, "DARSHAN_LDMS_FASTPATH", mode);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_ROLLUP_POLICIES")) {
    if (*v != '\0') {
      cfg.connector.rollup_policies = v;
    } else {
      reject(cfg, "DARSHAN_LDMS_ROLLUP_POLICIES", "");
    }
  }
  if (const char* v = get("DARSHAN_LDMS_ROLLUP_DIR")) {
    if (*v != '\0') {
      cfg.connector.rollup_dir = v;
    } else {
      reject(cfg, "DARSHAN_LDMS_ROLLUP_DIR", "");
    }
  }
  if (const char* v = get("DARSHAN_LDMS_ROLLUP_RETENTION")) {
    std::uint64_t n;
    if (parse_u64(v, n)) {
      cfg.connector.rollup_retention_s = n;
    } else {
      reject(cfg, "DARSHAN_LDMS_ROLLUP_RETENTION", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_ANOMALY")) {
    cfg.connector.anomaly = std::string(v) != "0";
  }
  if (const char* v = get("DARSHAN_LDMS_ANOMALY_BUCKET")) {
    double s;
    if (parse_f64(v, s) && s > 0.0) {
      cfg.connector.anomaly_bucket_s = s;
    } else {
      reject(cfg, "DARSHAN_LDMS_ANOMALY_BUCKET", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_ANOMALY_Z")) {
    double z;
    if (parse_f64(v, z) && z > 0.0) {
      cfg.connector.anomaly_z = z;
    } else {
      reject(cfg, "DARSHAN_LDMS_ANOMALY_Z", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_ANOMALY_MIN_NODES")) {
    std::uint64_t n;
    if (parse_u64(v, n) && n >= 2) {
      cfg.connector.anomaly_min_nodes = n;
    } else {
      reject(cfg, "DARSHAN_LDMS_ANOMALY_MIN_NODES", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_ANOMALY_TREND_WINDOW")) {
    std::uint64_t n;
    if (parse_u64(v, n) && n >= 2) {
      cfg.connector.anomaly_trend_window = n;
    } else {
      reject(cfg, "DARSHAN_LDMS_ANOMALY_TREND_WINDOW", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_ANOMALY_TREND_RISE")) {
    double r;
    if (parse_f64(v, r) && r > 0.0) {
      cfg.connector.anomaly_trend_rise = r;
    } else {
      reject(cfg, "DARSHAN_LDMS_ANOMALY_TREND_RISE", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_ANOMALY_BURST")) {
    double f;
    if (parse_f64(v, f) && f > 1.0) {
      cfg.connector.anomaly_burst_factor = f;
    } else {
      reject(cfg, "DARSHAN_LDMS_ANOMALY_BURST", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_ANOMALY_RETENTION")) {
    std::uint64_t n;
    if (parse_u64(v, n) && n >= 1) {
      cfg.connector.anomaly_retention = n;
    } else {
      reject(cfg, "DARSHAN_LDMS_ANOMALY_RETENTION", v);
    }
  }
  if (const char* v = get("DARSHAN_LDMS_MODULES")) {
    for (const std::string& part : split(v, ',')) {
      const std::string name(trim(part));
      if (name.empty()) continue;
      darshan::Module module;
      if (darshan::module_from_name(name, module)) {
        cfg.connector.module_filter.push_back(module);
      } else {
        reject(cfg, "DARSHAN_LDMS_MODULES", name);
      }
    }
  }
  return cfg;
}

}  // namespace dlc::core
