#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <functional>

namespace perfbench {

double control_overhead_model(std::size_t neighbors, std::uint64_t playback_rate) {
  return 620.0 * static_cast<double>(neighbors) /
         (30.0 * 1024.0 * static_cast<double>(playback_rate));
}

std::vector<std::string> check_session(const SessionFacts& f) {
  std::vector<std::string> failures;
  const auto fail = [&failures](const std::string& what) { failures.push_back(what); };
  const continu::core::SessionStats& s = f.stats;

  // (b) The source emits at k/p for k = 1, 2, ...; every instant up to
  // the horizon runs. Accumulated floating-point instants may land the
  // last one just past the horizon when it falls exactly on it.
  const double instants = f.duration * static_cast<double>(f.playback_rate);
  const auto expected = static_cast<std::uint64_t>(std::floor(instants + 1e-9));
  const bool on_end = std::fabs(instants - std::round(instants)) < 1e-9;
  if (!(s.segments_emitted == expected ||
        (on_end && expected > 0 && s.segments_emitted == expected - 1))) {
    fail("(b) segments_emitted " + std::to_string(s.segments_emitted) +
         " != " + std::to_string(expected) + " emission instants");
  }

  // (c) Each emitted segment is useful at most once to each non-source
  // node.
  if (s.duplicate_deliveries > s.segments_delivered) {
    fail("(c) duplicates exceed deliveries");
  } else if (f.nodes == 0 ||
             s.segments_delivered - s.duplicate_deliveries >
                 static_cast<std::uint64_t>(f.nodes - 1) * s.segments_emitted) {
    fail("(c) useful deliveries " +
         std::to_string(s.segments_delivered - s.duplicate_deliveries) +
         " exceed (nodes - 1) x emitted");
  }

  // (d) Deliveries are bounded by the summed upload and download
  // capacity over the horizon.
  const auto delivered = static_cast<double>(s.segments_delivered);
  if (delivered > f.outbound_capacity * f.duration) {
    fail("(d) deliveries exceed summed outbound capacity");
  }
  if (delivered > f.inbound_capacity * f.duration) {
    fail("(d) deliveries exceed summed inbound capacity");
  }

  // (e) Control overhead near the paper's buffer-map model.
  const double model = control_overhead_model(f.connected_neighbors, f.playback_rate);
  if (!f.faulted && !(f.control_overhead >= kOverheadBandLow * model &&
                      f.control_overhead <= kOverheadBandHigh * model)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "(e) control overhead %.5f outside [%.5f, %.5f]",
                  f.control_overhead, kOverheadBandLow * model,
                  kOverheadBandHigh * model);
    fail(buf);
  }

  // (f) Stable continuity is a ratio of played to due segments.
  if (!(f.stable_continuity > 0.0 && f.stable_continuity <= 1.0)) {
    fail("(f) stable continuity " + std::to_string(f.stable_continuity) +
         " outside (0, 1]");
  }
  return failures;
}

std::string check_fingerprint(std::uint64_t reference, std::uint64_t got,
                              const std::string& what) {
  if (reference == got) return {};
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(a) fingerprint %016llx != reference %016llx",
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(reference));
  return buf + (" (" + what + ")");
}

std::string check_churn_order(double continu_mean, double cool_mean) {
  if (continu_mean > cool_mean) return {};
  return "(f) churned ContinuStreaming continuity " + std::to_string(continu_mean) +
         " not above CoolStreaming's " + std::to_string(cool_mean);
}

int self_test(const SessionFacts& good, std::uint64_t fingerprint) {
  int missed = 0;
  const auto expect = [&missed](const char* name, bool ok) {
    std::printf("  %-48s %s\n", name, ok ? "ok" : "FAILED");
    if (!ok) ++missed;
  };
  const auto caught = [&good](const std::function<void(SessionFacts&)>& perturb) {
    SessionFacts bad = good;
    perturb(bad);
    return !check_session(bad).empty();
  };

  const std::vector<std::string> clean = check_session(good);
  for (const std::string& failure : clean) std::printf("  unperturbed: %s\n", failure.c_str());
  expect("unperturbed session passes", clean.empty());
  expect("unperturbed fingerprint passes",
         check_fingerprint(fingerprint, fingerprint, "self").empty());

  expect("(a) swapped fingerprint caught",
         !check_fingerprint(fingerprint, fingerprint ^ 0x5a5a5a5a5a5a5a5aULL, "self")
              .empty());
  expect("(b) segments_emitted + 2 caught", caught([](SessionFacts& f) {
           f.stats.segments_emitted += 2;
         }));
  expect("(b) segments_emitted - 2 caught", caught([](SessionFacts& f) {
           f.stats.segments_emitted -= 2;
         }));
  expect("(c) useful deliveries over (nodes-1) x emitted caught", caught([](SessionFacts& f) {
           f.stats.segments_delivered = f.stats.duplicate_deliveries +
                                        (f.nodes - 1) * f.stats.segments_emitted + 1;
         }));
  expect("(c) duplicates over deliveries caught", caught([](SessionFacts& f) {
           f.stats.duplicate_deliveries = f.stats.segments_delivered + 1;
         }));
  expect("(d) deliveries over outbound capacity caught", caught([](SessionFacts& f) {
           f.outbound_capacity = static_cast<double>(f.stats.segments_delivered) /
                                 f.duration * 0.99;
         }));
  expect("(d) deliveries over inbound capacity caught", caught([](SessionFacts& f) {
           f.inbound_capacity = static_cast<double>(f.stats.segments_delivered) /
                                f.duration * 0.99;
         }));
  const double model = control_overhead_model(good.connected_neighbors, good.playback_rate);
  expect("(e) control overhead just above the band caught", caught([model](SessionFacts& f) {
           f.control_overhead = kOverheadBandHigh * model * 1.01;
         }));
  expect("(e) control overhead just below the band caught", caught([model](SessionFacts& f) {
           f.control_overhead = kOverheadBandLow * model * 0.99;
         }));
  expect("(f) stable continuity 0 caught", caught([](SessionFacts& f) {
           f.stable_continuity = 0.0;
         }));
  expect("(f) stable continuity 1.01 caught", caught([](SessionFacts& f) {
           f.stable_continuity = 1.01;
         }));
  expect("(f) churned pair order swapped caught",
         !check_churn_order(0.80, 0.90).empty() && check_churn_order(0.90, 0.80).empty());
  return missed;
}

}  // namespace perfbench
