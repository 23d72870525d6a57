#pragma once
// Output checks. Every check compares a session's outputs against a
// property of the method or a figure the benchmark computes itself
// (emission instants, conservation and capacity bounds, the paper's
// control-overhead model), never against a stored copy of an earlier
// run's output.

#include <cstdint>
#include <string>
#include <vector>

#include "core/session.hpp"

namespace perfbench {

/// What the checks need to know about one finished session.
struct SessionFacts {
  continu::core::SessionStats stats;
  double duration = 0.0;               ///< virtual horizon, seconds
  std::uint64_t playback_rate = 0;     ///< p, segments per second
  std::size_t connected_neighbors = 0; ///< M
  std::size_t nodes = 0;               ///< every node the session held
  /// Upper bounds on Σ inbound and Σ outbound rate over those nodes,
  /// segments per second (exact sums when the session is at hand).
  double inbound_capacity = 0.0;
  double outbound_capacity = 0.0;
  double control_overhead = 0.0;
  double stable_continuity = 0.0;
  /// The session ran under an active FaultPlan. The §5.4.2 model
  /// assumes loss-free links: with data lost and nodes crashed, the
  /// same buffer maps carry less data (f5_static_1k reaches 2.6x the
  /// model), so check (e) applies to fault-free sessions only.
  bool faulted = false;
};

/// Control overhead predicted by the paper's §5.4.2 model:
/// 620·M / (30·1024·p) — one 620-bit buffer map per neighbor per
/// period against p segments of 30 Kb.
[[nodiscard]] double control_overhead_model(std::size_t neighbors,
                                            std::uint64_t playback_rate);

/// The accepted band around the model, as factors of it. Measured
/// overhead sits above the model on short horizons: the first seconds
/// carry a full buffer-map exchange but little data. Over 20 runs of
/// 8 sessions each, the 8k sessions (15 s) measured 2.00-2.29x, so the
/// ceiling sits 9 % above the highest; the sweep's fault-free sessions
/// (30 s) measured 1.10-1.78x.
inline constexpr double kOverheadBandLow = 0.5;
inline constexpr double kOverheadBandHigh = 2.5;

/// Checks (b)-(f) on one session ((e) only when it is fault-free);
/// returns one message per failure.
[[nodiscard]] std::vector<std::string> check_session(const SessionFacts& facts);

/// Check (a): a fingerprint must equal the reference run's.
[[nodiscard]] std::string check_fingerprint(std::uint64_t reference, std::uint64_t got,
                                            const std::string& what);

/// Fig. 6: ContinuStreaming's mean stable continuity must exceed
/// CoolStreaming's on the churned pair.
[[nodiscard]] std::string check_churn_order(double continu_mean, double cool_mean);

/// Feeds every check a passing input and perturbed copies of it, and
/// prints whether the input passed and each perturbation was caught.
/// Returns how many of those expectations failed (0 = every check
/// works).
[[nodiscard]] int self_test(const SessionFacts& good, std::uint64_t fingerprint);

}  // namespace perfbench
