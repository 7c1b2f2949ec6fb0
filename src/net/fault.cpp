#include "net/fault.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "cache/digest.hpp"

namespace pmware::net {

namespace {

using cache::fnv1a;
using cache::splitmix64;

/// Deterministic per-(request, attempt, rule) roll in [0, 1). The inputs are
/// everything that distinguishes one logical request from another WITHOUT
/// being thread-schedule dependent: sim-time, the generalized path (concrete
/// user ids are registration-order-assigned, so they must not participate),
/// the body bytes (distinguish same-route requests within one frozen
/// housekeeping tick), the client's attempt counter (so retries re-roll),
/// and the rule index (so overlapping rules roll independently).
double fault_roll(std::uint64_t seed, const HttpRequest& request,
                  const std::string& gpath, std::size_t rule_index) {
  std::uint64_t h = seed;
  h = splitmix64(h ^ static_cast<std::uint64_t>(request.sim_time()));
  h = splitmix64(h ^ fnv1a(gpath));
  h = splitmix64(h ^ fnv1a(request.body.dump()));
  h = splitmix64(h ^ request.attempt());
  h = splitmix64(h ^ static_cast<std::uint64_t>(rule_index));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Parses "90", "30s", "5m", "6h", "2d" into seconds.
SimDuration parse_duration(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("fault plan: empty time");
  std::size_t suffix = 0;
  SimDuration scale = 1;
  switch (text.back()) {
    case 's': suffix = 1; scale = 1; break;
    case 'm': suffix = 1; scale = 60; break;
    case 'h': suffix = 1; scale = 3600; break;
    case 'd': suffix = 1; scale = 86400; break;
    default: break;
  }
  const std::string digits = text.substr(0, text.size() - suffix);
  if (digits.empty() ||
      !std::all_of(digits.begin(), digits.end(),
                   [](char c) { return c >= '0' && c <= '9'; }))
    throw std::invalid_argument("fault plan: bad time '" + text + "'");
  return static_cast<SimDuration>(std::strtoll(digits.c_str(), nullptr, 10)) *
         scale;
}

std::string render_time(SimTime t) {
  if (t == std::numeric_limits<SimTime>::max()) return "inf";
  if (t != 0 && t % 86400 == 0) return std::to_string(t / 86400) + "d";
  return std::to_string(t) + "s";
}

/// Deterministic per-(device, day, rule, decision) roll in [0, 1). Keyed on
/// the device's stable identity string (IMEI) rather than its cloud user id:
/// user ids are assigned in registration order, which varies with thread
/// scheduling, and lifecycle decisions must not.
double device_roll(std::uint64_t seed, const std::string& device_key,
                   std::int64_t day, std::size_t rule_index,
                   std::uint64_t salt) {
  std::uint64_t h = seed;
  h = splitmix64(h ^ fnv1a(device_key));
  h = splitmix64(h ^ static_cast<std::uint64_t>(day));
  h = splitmix64(h ^ static_cast<std::uint64_t>(rule_index));
  h = splitmix64(h ^ salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Salts separating the independent decisions rolled from one
// (device, day, rule) key.
constexpr std::uint64_t kSaltCrashHit = 1;
constexpr std::uint64_t kSaltCrashTime = 2;
constexpr std::uint64_t kSaltWipeHit = 3;
constexpr std::uint64_t kSaltJoinHit = 4;
constexpr std::uint64_t kSaltJoinDay = 5;

/// True when day `day`'s window [day*86400, (day+1)*86400) starts inside the
/// rule's [from, to) window.
bool rule_covers_day(const DeviceFaultRule& rule, std::int64_t day) {
  const SimTime day_start = day * 86400;
  return day_start >= rule.from && day_start < rule.to;
}

}  // namespace

std::string generalized_path(const std::string& path) {
  std::string out;
  out.reserve(path.size());
  std::size_t i = 0;
  while (i < path.size()) {
    if (path[i] != '/') {
      out += path[i++];
      continue;
    }
    std::size_t j = i + 1;
    while (j < path.size() && path[j] != '/') ++j;
    const bool numeric =
        j > i + 1 && std::all_of(path.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                                 path.begin() + static_cast<std::ptrdiff_t>(j),
                                 [](char c) { return c >= '0' && c <= '9'; });
    out += numeric ? std::string("/:n") : path.substr(i, j - i);
    i = j;
  }
  return out;
}

FaultOutcome FaultPlan::evaluate(const HttpRequest& request) const {
  FaultOutcome outcome;
  if (rules.empty()) return outcome;
  const SimTime now = request.sim_time();
  const std::string gpath = generalized_path(request.path);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const FaultRule& rule = rules[i];
    if (now < rule.from || now >= rule.to) continue;
    if (!rule.route.empty() && gpath.find(rule.route) == std::string::npos)
      continue;
    outcome.added_latency_s += rule.added_latency_s;
    if (outcome.reject || rule.error_prob <= 0.0) continue;
    // error=1 short-circuits the roll: hard outages must not depend on the
    // hash, and skipping it keeps full-outage plans cheap.
    if (rule.error_prob >= 1.0 ||
        fault_roll(seed, request, gpath, i) < rule.error_prob)
      outcome.reject = HttpResponse::error(rule.status, "injected fault");
  }
  return outcome;
}

DeviceFaultDecision FaultPlan::evaluate_device(const std::string& device_key,
                                               std::int64_t day) const {
  DeviceFaultDecision decision;
  for (std::size_t i = 0; i < device_rules.size(); ++i) {
    const DeviceFaultRule& rule = device_rules[i];
    if (!rule_covers_day(rule, day)) continue;
    switch (rule.kind) {
      case DeviceFaultRule::Kind::Crash: {
        if (decision.crash_at) break;  // first crash rule to hit wins
        if (rule.rate < 1.0 &&
            device_roll(seed, device_key, day, i, kSaltCrashHit) >= rule.rate)
          break;
        const double at = device_roll(seed, device_key, day, i, kSaltCrashTime);
        decision.crash_at =
            day * 86400 + static_cast<SimTime>(at * 86400.0);
        decision.restart_delay = rule.restart_delay;
        break;
      }
      case DeviceFaultRule::Kind::Wipe:
        if (rule.rate >= 1.0 ||
            device_roll(seed, device_key, day, i, kSaltWipeHit) < rule.rate)
          decision.wipe = true;
        break;
      case DeviceFaultRule::Kind::Join:
        break;  // join rules do not act per-day; see join_day()
    }
  }
  return decision;
}

std::int64_t FaultPlan::join_day(const std::string& device_key) const {
  for (std::size_t i = 0; i < device_rules.size(); ++i) {
    const DeviceFaultRule& rule = device_rules[i];
    if (rule.kind != DeviceFaultRule::Kind::Join) continue;
    if (rule.rate < 1.0 &&
        device_roll(seed, device_key, 0, i, kSaltJoinHit) >= rule.rate)
      continue;
    const std::int64_t first = rule.from / 86400;
    const SimTime to =
        std::min(rule.to, std::numeric_limits<SimTime>::max() - 86400);
    const std::int64_t last = std::max(first + 1, (to + 86399) / 86400);
    const double at = device_roll(seed, device_key, 0, i, kSaltJoinDay);
    return first + static_cast<std::int64_t>(at * static_cast<double>(last -
                                                                      first));
  }
  return 0;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::string trimmed;
  for (char c : spec)
    if (!std::isspace(static_cast<unsigned char>(c))) trimmed += c;
  if (trimmed.empty()) return plan;

  std::stringstream rules_in(trimmed);
  std::string rule_text;
  while (std::getline(rules_in, rule_text, ';')) {
    if (rule_text.empty()) continue;
    FaultRule rule;
    DeviceFaultRule device;
    bool wire_fields = false;    // a "seed=N" segment is not a rule
    bool device_window = false;  // crash=/wipe=/join= seen
    bool device_fields = false;  // any device-side key seen
    std::string rate_key;        // which *_rate key set device.rate
    std::stringstream fields_in(rule_text);
    std::string field;
    while (std::getline(fields_in, field, ',')) {
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos)
        throw std::invalid_argument("fault plan: expected key=value in '" +
                                    field + "'");
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      const auto parse_prob = [&](double& out) {
        char* end = nullptr;
        out = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0' || out < 0.0 || out > 1.0)
          throw std::invalid_argument("fault plan: " + key +
                                      " wants 0..1, got '" + value + "'");
      };
      const auto parse_window = [&](SimTime& from, SimTime& to) {
        const std::size_t dots = value.find("..");
        if (dots == std::string::npos)
          throw std::invalid_argument("fault plan: " + key +
                                      " wants A..B, got '" + value + "'");
        from = parse_duration(value.substr(0, dots));
        to = parse_duration(value.substr(dots + 2));
      };
      if (key == "outage") {
        parse_window(rule.from, rule.to);
        rule.error_prob = 1.0;
        wire_fields = true;
      } else if (key == "route") {
        rule.route = value;
        wire_fields = true;
      } else if (key == "from") {
        rule.from = parse_duration(value);
        wire_fields = true;
      } else if (key == "to") {
        rule.to = parse_duration(value);
        wire_fields = true;
      } else if (key == "error") {
        parse_prob(rule.error_prob);
        wire_fields = true;
      } else if (key == "status") {
        rule.status = static_cast<int>(parse_duration(value));
        if (rule.status < 400 || rule.status > 599)
          throw std::invalid_argument("fault plan: status wants 4xx/5xx, got '" +
                                      value + "'");
        wire_fields = true;
      } else if (key == "latency") {
        rule.added_latency_s = parse_duration(value);
        wire_fields = true;
      } else if (key == "seed") {
        plan.seed = static_cast<std::uint64_t>(parse_duration(value));
      } else if (key == "crash" || key == "wipe" || key == "join") {
        if (device_window)
          throw std::invalid_argument(
              "fault plan: one crash=/wipe=/join= per rule, got '" + rule_text +
              "'");
        parse_window(device.from, device.to);
        device.kind = key == "crash"  ? DeviceFaultRule::Kind::Crash
                      : key == "wipe" ? DeviceFaultRule::Kind::Wipe
                                      : DeviceFaultRule::Kind::Join;
        device_window = true;
        device_fields = true;
      } else if (key == "crash_rate" || key == "wipe_rate" ||
                 key == "join_rate") {
        parse_prob(device.rate);
        rate_key = key;
        device_fields = true;
      } else if (key == "restart_delay") {
        device.restart_delay = parse_duration(value);
        device_fields = true;
      } else {
        throw std::invalid_argument("fault plan: unknown field '" + key + "'");
      }
    }
    if (wire_fields && device_fields)
      throw std::invalid_argument(
          "fault plan: wire and device fields mixed in '" + rule_text + "'");
    if (device_fields) {
      if (!device_window)
        throw std::invalid_argument(
            "fault plan: device rule needs crash=/wipe=/join= window in '" +
            rule_text + "'");
      const char* wanted_rate =
          device.kind == DeviceFaultRule::Kind::Crash  ? "crash_rate"
          : device.kind == DeviceFaultRule::Kind::Wipe ? "wipe_rate"
                                                       : "join_rate";
      if (!rate_key.empty() && rate_key != wanted_rate)
        throw std::invalid_argument("fault plan: " + rate_key +
                                    " does not apply in '" + rule_text + "'");
      if (device.kind != DeviceFaultRule::Kind::Crash &&
          device.restart_delay != DeviceFaultRule{}.restart_delay)
        throw std::invalid_argument(
            "fault plan: restart_delay wants a crash rule in '" + rule_text +
            "'");
      if (device.from >= device.to)
        throw std::invalid_argument("fault plan: empty window in '" +
                                    rule_text + "'");
      plan.device_rules.push_back(device);
      continue;
    }
    if (!wire_fields) continue;
    if (rule.from >= rule.to)
      throw std::invalid_argument("fault plan: empty window in '" + rule_text +
                                  "'");
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

std::string FaultPlan::describe() const {
  if (empty()) return "none";
  std::string out;
  for (const FaultRule& rule : rules) {
    if (!out.empty()) out += "; ";
    if (rule.error_prob >= 1.0) {
      out += "outage";
    } else if (rule.error_prob > 0.0) {
      std::ostringstream prob;
      prob << rule.error_prob;
      out += "error=" + prob.str();
    } else {
      out += "latency-only";
    }
    if (!rule.route.empty()) out += " route~" + rule.route;
    out += " [" + render_time(rule.from) + ".." + render_time(rule.to) + ")";
    if (rule.added_latency_s > 0)
      out += " +" + std::to_string(rule.added_latency_s) + "s";
    if (rule.status != kStatusServiceUnavailable)
      out += " status=" + std::to_string(rule.status);
  }
  for (const DeviceFaultRule& rule : device_rules) {
    if (!out.empty()) out += "; ";
    switch (rule.kind) {
      case DeviceFaultRule::Kind::Crash: out += "crash"; break;
      case DeviceFaultRule::Kind::Wipe: out += "wipe"; break;
      case DeviceFaultRule::Kind::Join: out += "join"; break;
    }
    out += " [" + render_time(rule.from) + ".." + render_time(rule.to) + ")";
    if (rule.rate < 1.0) {
      std::ostringstream prob;
      prob << rule.rate;
      out += " p=" + prob.str();
    }
    if (rule.kind == DeviceFaultRule::Kind::Crash)
      out += " restart+" + std::to_string(rule.restart_delay) + "s";
  }
  return out;
}

}  // namespace pmware::net
