// Sync replay: the PMS -> cloud request stream captured from one study pass
// is sent again, in order, through one RestClient with no simulated loss,
// into a fresh cloud built from the same seed. One client in a closed loop:
// each request waits for its reply, as a phone does. No sensing runs, so
// the wire path (request copy, JSON dump, routing, handlers, cloud GCA,
// storage) does all the work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "proxy.hpp"
#include "spans.hpp"
#include "study_runner.hpp"

namespace pmware::perfbench {

/// `between_units` runs after every this many replayed requests.
inline constexpr std::size_t kReplayHookEvery = 100;

struct ReplayResult {
  std::vector<double> send_ns;    ///< RestClient::send, per request
  std::vector<double> handle_ns;  ///< the cloud's handle() inside it
  std::size_t status_mismatches = 0;
  std::size_t body_mismatches = 0;  ///< checked only when counting
  std::vector<Exchange> exchanges;  ///< proxy log of the pass
  std::uint64_t digest = 0;
  std::int64_t wall_ns = 0;
  std::map<std::string, double> counters;
};

/// Replays `stream` into a fresh cloud. `counting` serializes bodies (byte
/// counts and response-body checks) and is off in timed passes.
ReplayResult run_replay_pass(const StudySetup& setup,
                             const std::vector<CapturedRequest>& stream,
                             Proxy& proxy,
                             const std::function<void()>& between_units,
                             SpanRecorder* spans, bool counting);

}  // namespace pmware::perfbench
