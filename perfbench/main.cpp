// perfbench — end-to-end and per-layer benchmark of the simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   perfbench --self-test
//
// --trace 0 times the workload with observability off and prints the
// end-to-end metrics (setup_s, run_s, peak_rss_mib). --trace 1 repeats
// the workload once with the phase profiler and counter registry on,
// runs the layer probes and prints the per-layer metrics. Either way
// every session's outputs are checked (checks.hpp) and the last line
// of standard output is one JSON object:
//
//   {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// An operation is one simulated session; it fails if it throws or
// fails a check. The spans the benchmark recorded around its calls
// into the simulator are written to DIR at exit.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/session.hpp"
#include "obs/report.hpp"
#include "probes.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/scenario.hpp"
#include "spans.hpp"
#include "trace/generator.hpp"
#include "util/logging.hpp"

namespace perfbench {
namespace {

namespace core = continu::core;
namespace obs = continu::obs;
namespace runner = continu::runner;
namespace trace = continu::trace;

// --- workloads ---------------------------------------------------------------

/// Every simulation seed derives from (kSeedBase, --seed). Each
/// workload keeps its scenarios' own overlays (trace seeds).
constexpr std::uint64_t kSeedBase = 42;

/// Virtual horizon of the single-session workloads: long enough for
/// playback to settle and for the quantized path's heap growth to
/// show, short enough to time several sessions and their references
/// in a run.
constexpr double kSessionDuration = 15.0;
constexpr double kSessionStableFrom = 10.0;
constexpr unsigned kSessionThreads = 4;
/// One round times this fixed list of sessions, each with its own
/// simulation seed derived from --seed; a run repeats whole rounds
/// until --seconds of Session::run wall. run_s is the median over
/// rounds of the round's mean session wall, so every run, on any host,
/// measures the same sessions.
constexpr std::size_t kRoundSessions = 8;
/// Thread count of the reference runs that check (a) compares against,
/// and how many of them run side by side.
constexpr unsigned kReferenceThreads = 1;
constexpr unsigned kReferenceJobs = 4;

constexpr double kSweepDuration = 30.0;
constexpr double kSweepStableFrom = 15.0;
constexpr std::size_t kSweepReplications = 3;
constexpr unsigned kSweepJobs = 4;
/// Figs. 5-6 comparison plus the fault family, at 1k nodes.
const char* const kSweepScenarios[] = {"static_1k",       "cool_static_1k",
                                       "gridmedia_static_1k", "dynamic_1k",
                                       "cool_dynamic_1k", "f5_static_1k"};
const char* const kChurnedContinu = "dynamic_1k";
const char* const kChurnedCool = "cool_dynamic_1k";

struct Workload {
  const char* name;
  const char* scenario;  ///< nullptr for the sweep
};
const Workload kWorkloads[] = {
    {"static_8k_t4", "static_8k"},
    {"q1_static_8k_t4", "q1_static_8k"},
    {"paper_sweep_1k_j4", nullptr},
};

/// Round-phase forks and their profile names.
const obs::Phase kForkPhases[] = {obs::Phase::kPrepareLocal, obs::Phase::kPlan,
                                  obs::Phase::kDeliveryBucket,
                                  obs::Phase::kSampleSweep, obs::Phase::kChurnSweep};

/// Fork shape used by a probe when the workload never forked that
/// phase: 25 shards of 3 µs, the delivery-bucket shape of q1_static_8k.
constexpr ForkShape kDefaultTinyShape{25, 3000};

// --- run context -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = "perfbench/out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Context {
  Options opt;
  std::uint64_t t0_ns = 0;  ///< process start (entry to main)
  SpanLog spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  /// Records one operation and its check failures.
  void op(const std::string& label, const std::vector<std::string>& failures) {
    ++attempted;
    if (failures.empty()) return;
    ++failed;
    for (const std::string& f : failures) problems.push_back(label + ": " + f);
  }
  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

// --- helpers -------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Bytes the allocator has handed out and not yet taken back.
double heap_in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks) + static_cast<double>(info.hblkhd);
}

/// The result ExperimentRunner::run_one builds, from a live session.
runner::ReplicationResult result_of(const runner::ReplicationSpec& spec,
                                    core::Session& session) {
  runner::ReplicationResult out;
  out.label = spec.label;
  out.seed = spec.config.seed;
  out.stable_continuity = session.continuity().stable_mean(spec.stable_from);
  out.stabilization_time =
      session.continuity().stabilization_time(0.9 * out.stable_continuity);
  out.continuity_index =
      session.collector().has("continuity_index")
          ? session.collector().mean_from("continuity_index", spec.stable_from)
          : 0.0;
  out.control_overhead = session.traffic().control_overhead();
  out.prefetch_overhead = session.traffic().prefetch_overhead();
  out.alive_at_end = session.alive_count();
  out.stats = session.stats();
  out.continuity = session.continuity();
  out.collector = session.collector();
  out.obs = session.obs_report();
  return out;
}

SessionFacts facts_common(const runner::ReplicationSpec& spec,
                          const runner::ReplicationResult& result) {
  SessionFacts f;
  f.stats = result.stats;
  f.duration = spec.duration;
  f.playback_rate = spec.config.playback_rate;
  f.connected_neighbors = spec.config.connected_neighbors;
  f.control_overhead = result.control_overhead;
  f.stable_continuity = result.stable_continuity;
  f.faulted = spec.config.fault.active();
  return f;
}

/// Facts with the exact capacity sums over the session's nodes.
SessionFacts facts_of(const runner::ReplicationSpec& spec,
                      const runner::ReplicationResult& result,
                      const core::Session& session) {
  SessionFacts f = facts_common(spec, result);
  f.nodes = session.node_count();
  for (std::size_t i = 0; i < f.nodes; ++i) {
    f.inbound_capacity += session.node(i).inbound_rate();
    f.outbound_capacity += session.node(i).outbound_rate();
  }
  return f;
}

/// Facts with capacity bounded by the configured per-node maxima, for
/// sessions run inside the experiment runner.
SessionFacts facts_of(const runner::ReplicationSpec& spec,
                      const runner::ReplicationResult& result) {
  SessionFacts f = facts_common(spec, result);
  f.nodes = spec.snapshot->node_count() + result.stats.joins;
  const auto others = static_cast<double>(f.nodes - 1);
  f.inbound_capacity = others * spec.config.inbound_max;
  f.outbound_capacity = spec.config.source_outbound + others * spec.config.outbound_max;
  return f;
}

void enable_obs(runner::ReplicationSpec& spec) {
  spec.config.obs.profile = true;
  spec.config.obs.counters = true;
}

// --- per-layer ledger ------------------------------------------------------------

/// Everything the per-layer metrics are computed from.
struct Ledger {
  double generate_ms = 0.0;
  double construct_ms = 0.0;
  double run_off_s = 0.0;  ///< timed wall, observability off
  double run_on_s = 0.0;   ///< same work with profiler and counters on
  obs::ProfileReport prof;  ///< summed over the traced sessions
  std::map<std::string, std::uint64_t> counters;  ///< summed
  std::uint64_t peak_pending = 0;                 ///< max over sessions
  double bytes_per_node = 0.0;
  double heap_outside_mib = 0.0;
  std::uint64_t messages = 0;
  double control_overhead = 0.0;
  std::vector<double> session_ms;
  double idle_ms = 0.0;
};

void add_report(Ledger& l, const obs::ObsReport& r) {
  l.prof.threads = r.prof.threads;
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    obs::PhaseTotals& into = l.prof.phases[p];
    const obs::PhaseTotals& from = r.prof.phases[p];
    into.serial_ns += from.serial_ns;
    into.serial_spans += from.serial_spans;
    into.fork_wall_ns += from.fork_wall_ns;
    into.forked_work_ns += from.forked_work_ns;
    into.forks += from.forks;
    into.shards_run += from.shards_run;
    into.max_shard_ns += from.max_shard_ns;
    into.mean_shard_ns += from.mean_shard_ns;
  }
  l.prof.amdahl.run_wall_ns += r.prof.amdahl.run_wall_ns;
  l.prof.amdahl.fork_wall_ns += r.prof.amdahl.fork_wall_ns;
  l.prof.amdahl.serial_ns += r.prof.amdahl.serial_ns;
  for (const auto& [name, value] : r.counter_values) {
    if (name == "engine.peak_queue_depth") {
      l.peak_pending = std::max(l.peak_pending, value);
    } else {
      l.counters[name] += value;
    }
  }
}

ForkShape shape_of(const obs::ProfileReport& prof, std::initializer_list<obs::Phase> phases,
                   const ForkShape& fallback) {
  std::uint64_t forks = 0, shards = 0, work = 0;
  for (const obs::Phase p : phases) {
    const obs::PhaseTotals& t = prof.phases[static_cast<std::size_t>(p)];
    forks += t.forks;
    shards += t.shards_run;
    work += t.forked_work_ns;
  }
  if (forks == 0 || shards == 0) return fallback;
  return ForkShape{static_cast<std::size_t>((shards + forks / 2) / forks), work / shards};
}

void emit_layer_metrics(Context& c, const Ledger& l) {
  const auto counter = [&l](const char* name) {
    const auto it = l.counters.find(name);
    return it == l.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double events = counter("engine.events_executed");

  c.metric("trace.generate_ms", l.generate_ms, "ms");

  c.metric("sim.events", events, "count");
  c.metric("sim.peak_pending", static_cast<double>(l.peak_pending), "count");
  c.metric("sim.ns_per_event", ratio(l.run_off_s * 1e9, events), "ns");
  c.metric("sim.queue_ns_per_op", probe_queue_ns(l.peak_pending, c.opt.seed), "ns");

  const double threads = std::max(1u, l.prof.threads);
  for (const obs::Phase phase : kForkPhases) {
    const obs::PhaseTotals& t = l.prof.phases[static_cast<std::size_t>(phase)];
    const std::string prefix = std::string("exec.") + obs::phase_name(phase);
    c.metric(prefix + ".forks", static_cast<double>(t.forks), "count");
    c.metric(prefix + ".fork_wall_ms", static_cast<double>(t.fork_wall_ns) * 1e-6, "ms");
    c.metric(prefix + ".work_ms", static_cast<double>(t.forked_work_ns) * 1e-6, "ms");
    c.metric(prefix + ".imbalance", t.imbalance(), "ratio");
    c.metric(prefix + ".efficiency",
             ratio(static_cast<double>(t.forked_work_ns),
                   static_cast<double>(t.fork_wall_ns) * threads),
             "ratio");
  }
  const ForkShape tiny =
      shape_of(l.prof, {obs::Phase::kDeliveryBucket}, kDefaultTinyShape);
  const ForkShape round = shape_of(
      l.prof, {obs::Phase::kPrepareLocal, obs::Phase::kPlan}, kDefaultTinyShape);
  c.metric("exec.fork_tiny_us", probe_fork_us(tiny, kSessionThreads), "us");
  c.metric("exec.fork_tiny_inline_us", probe_fork_us(tiny, 1), "us");
  c.metric("exec.fork_round_us", probe_fork_us(round, kSessionThreads), "us");
  c.metric("exec.fork_round_inline_us", probe_fork_us(round, 1), "us");

  const auto phase_serial_ms = [&l](obs::Phase p) {
    return static_cast<double>(l.prof.phases[static_cast<std::size_t>(p)].serial_ns) *
           1e-6;
  };
  const double serial_ms = static_cast<double>(l.prof.amdahl.serial_ns) * 1e-6;
  const double link_ms = phase_serial_ms(obs::Phase::kPrepareLink);
  const double commit_ms = phase_serial_ms(obs::Phase::kCommit);
  c.metric("core.construct_ms", l.construct_ms, "ms");
  c.metric("core.serial_ms", serial_ms, "ms");
  c.metric("core.prepare_link_ms", link_ms, "ms");
  c.metric("core.commit_ms", commit_ms, "ms");
  c.metric("core.unattributed_ms", serial_ms - link_ms - commit_ms, "ms");
  c.metric("core.bytes_per_node", l.bytes_per_node, "B");
  c.metric("core.heap_outside_footprint_mib", l.heap_outside_mib, "MiB");
  const double delivered = counter("session.segments_delivered");
  const double booked = counter("session.segments_booked");
  c.metric("core.requests_sent", counter("session.requests_sent"), "count");
  c.metric("core.useful_delivery_ratio",
           ratio(delivered - counter("session.duplicate_deliveries"), delivered),
           "ratio");
  c.metric("core.booking_ratio", ratio(booked, booked + counter("session.segments_refused")),
           "ratio");

  const double batches = counter("net.delivery_batches");
  c.metric("net.delivery_batches", batches, "count");
  c.metric("net.deliveries_per_batch", ratio(counter("net.batched_deliveries"), batches),
           "count");
  c.metric("net.messages", static_cast<double>(l.messages), "count");
  c.metric("net.control_overhead", l.control_overhead, "ratio");

  const double launched = counter("session.prefetch_launched");
  c.metric("dht.route_messages", counter("session.dht_route_messages"), "count");
  c.metric("dht.prefetch_launched", launched, "count");
  c.metric("dht.prefetch_success_ratio",
           ratio(counter("session.prefetch_succeeded"), launched), "ratio");

  c.metric("overlay.neighbor_replacements", counter("session.neighbor_replacements"),
           "count");
  c.metric("overlay.joins", counter("session.joins"), "count");
  c.metric("fault.lost", counter("session.deliveries_lost"), "count");
  c.metric("fault.retry_backoffs", counter("session.retry_backoffs"), "count");

  c.metric("runner.session_ms_median", median(l.session_ms), "ms");
  c.metric("runner.session_ms_max",
           l.session_ms.empty() ? 0.0
                                : *std::max_element(l.session_ms.begin(), l.session_ms.end()),
           "ms");
  c.metric("runner.idle_ms", l.idle_ms, "ms");

  c.metric("obs.overhead_pct", (ratio(l.run_on_s, l.run_off_s) - 1.0) * 100.0, "%");
}

// --- single-session workloads ------------------------------------------------------

struct Timed {
  std::size_t spec = 0;  ///< index into the workload's spec list
  std::uint64_t fingerprint = 0;
  SessionFacts facts;
  double run_s = 0.0;
};

/// Runs a constructed session and collects its result.
Timed run_session(Context& c, const runner::ReplicationSpec& spec, core::Session& session,
                  runner::ReplicationResult* keep = nullptr) {
  Timed t;
  t.run_s = c.spans.time("Session::run", [&] { session.run(spec.duration); });
  runner::ReplicationResult result = result_of(spec, session);
  c.spans.time("runner::result_fingerprint",
               [&] { t.fingerprint = runner::result_fingerprint(result); });
  t.facts = facts_of(spec, result, session);
  if (keep != nullptr) *keep = std::move(result);
  return t;
}

/// Check (a)'s references: every spec again through
/// ExperimentRunner::run_one at kReferenceThreads, `jobs` specs at a
/// time. Each reference is one operation; one that throws leaves its
/// entry empty. `walls_ms`, when given, receives each serial run's wall.
std::vector<std::optional<std::uint64_t>> reference_fingerprints(
    Context& c, std::vector<runner::ReplicationSpec> specs, unsigned jobs,
    std::vector<double>* walls_ms = nullptr) {
  for (runner::ReplicationSpec& spec : specs) spec.config.threads = kReferenceThreads;
  std::vector<std::optional<std::uint64_t>> fps(specs.size());
  const auto fingerprint_all = [&](const std::vector<runner::ReplicationResult>& results,
                                   std::size_t first) {
    c.spans.time("runner::result_fingerprint", [&] {
      for (std::size_t i = 0; i < results.size(); ++i) {
        fps[first + i] = runner::result_fingerprint(results[i]);
      }
    });
  };
  if (jobs > 1) {
    try {
      std::vector<runner::ReplicationResult> results;
      c.spans.time("ExperimentRunner::run_all", [&] {
        results = runner::ExperimentRunner(jobs, kReferenceThreads).run_all(specs);
      });
      fingerprint_all(results, 0);
      for (const auto& spec : specs) c.op(spec.label + " (reference)", {});
    } catch (const std::exception& e) {
      for (const auto& spec : specs) {
        c.op(spec.label + " (reference)", {std::string("run_all threw: ") + e.what()});
      }
    }
    return fps;
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    try {
      runner::ReplicationResult result;
      const double wall = c.spans.time("ExperimentRunner::run_one", [&] {
        result = runner::ExperimentRunner::run_one(specs[i]);
      });
      if (walls_ms != nullptr) walls_ms->push_back(wall * 1e3);
      fingerprint_all({result}, i);
      c.op(specs[i].label + " (reference)", {});
    } catch (const std::exception& e) {
      c.op(specs[i].label + " (reference)", {std::string("threw: ") + e.what()});
    }
  }
  return fps;
}

/// Checks every timed session: (b)-(f) on its own outputs, (a) against
/// its spec's reference.
void check_timed(Context& c, const std::vector<runner::ReplicationSpec>& specs,
                 const std::vector<Timed>& timed,
                 const std::vector<std::optional<std::uint64_t>>& ref,
                 const std::string& versus) {
  double lowest = 0.0, highest = 0.0;  // check (e)'s margin, for the log
  for (const Timed& t : timed) {
    if (!t.facts.faulted) {
      const double factor = t.facts.control_overhead /
                            control_overhead_model(t.facts.connected_neighbors,
                                                   t.facts.playback_rate);
      lowest = lowest == 0.0 ? factor : std::min(lowest, factor);
      highest = std::max(highest, factor);
    }
    std::vector<std::string> failures = check_session(t.facts);
    if (ref[t.spec].has_value()) {
      const std::string fp = check_fingerprint(*ref[t.spec], t.fingerprint, versus);
      if (!fp.empty()) failures.push_back(fp);
    }
    c.op(specs[t.spec].label, failures);
  }
  std::fprintf(stderr, "perfbench: control overhead %.2f-%.2f x model (fault-free sessions)\n",
               lowest, highest);
}

void session_workload(Context& c, const Workload& w) {
  const runner::Scenario scenario = *runner::find_scenario(w.scenario);
  runner::ReplicationSpec base =
      runner::spec_for(scenario, runner::replication_seed(kSeedBase, c.opt.seed));
  base.config.threads = kSessionThreads;
  base.duration = kSessionDuration;
  base.stable_from = kSessionStableFrom;
  const std::string versus = "threads " + std::to_string(kSessionThreads) + " vs " +
                             std::to_string(kReferenceThreads);

  // Set-up: the snapshot and the first Session, timed from process start.
  auto snapshot = std::make_shared<trace::TraceSnapshot>();
  const double generate_s = c.spans.time("trace::generate_snapshot", [&] {
    *snapshot = trace::generate_snapshot(base.trace);
  });
  base.snapshot = snapshot;
  // Every session runs on the same overlay with its own simulation seed.
  std::vector<runner::ReplicationSpec> specs =
      runner::replicate(base, c.opt.trace ? 1 : kRoundSessions);
  std::unique_ptr<core::Session> session;
  const auto construct = [&](const runner::ReplicationSpec& spec) {
    return c.spans.time("Session::Session", [&] {
      session = std::make_unique<core::Session>(spec.config, *snapshot);
    });
  };
  const double construct_s = construct(specs.front());
  const double setup_s = static_cast<double>(now_ns() - c.t0_ns) * 1e-9;

  std::vector<Timed> timed;
  if (!c.opt.trace) {
    // Whole rounds over the same sessions; every session of every round
    // is an operation, checked against its spec's one reference.
    std::vector<double> round_means;
    double timed_s = 0.0;
    try {
      while (round_means.empty() || timed_s < c.opt.seconds) {
        double round_s = 0.0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
          if (session == nullptr) construct(specs[i]);
          timed.push_back(run_session(c, specs[i], *session));
          timed.back().spec = i;
          std::fprintf(stderr, "perfbench: %s run %.3f s, %llu events\n",
                       specs[i].label.c_str(), timed.back().run_s,
                       static_cast<unsigned long long>(session->simulator().executed()));
          session.reset();
          round_s += timed.back().run_s;
        }
        round_means.push_back(round_s / static_cast<double>(specs.size()));
        timed_s += round_s;
      }
    } catch (const std::exception& e) {
      c.op(w.name, {std::string("threw: ") + e.what()});
    }
    session.reset();
    const double rss = peak_rss_mib();
    check_timed(c, specs, timed, reference_fingerprints(c, specs, kReferenceJobs), versus);

    c.metric("setup_s", setup_s, "s");
    c.metric("run_s", median(round_means), "s");
    c.metric("peak_rss_mib", rss, "MiB");
    return;
  }

  Ledger l;
  l.generate_ms = generate_s * 1e3;
  l.construct_ms = construct_s * 1e3;
  try {
    // Observability off: the timed wall, the footprint and the heap.
    timed.push_back(run_session(c, specs.front(), *session));
    l.run_off_s = timed.back().run_s;
    const double heap = heap_in_use_bytes();
    core::MemoryFootprint fp;
    c.spans.time("Session::memory_footprint", [&] { fp = session->memory_footprint(); });
    l.bytes_per_node = fp.per_node_bytes();
    l.heap_outside_mib = (heap - static_cast<double>(fp.total_bytes())) / (1024.0 * 1024.0);
    session.reset();

    // Observability on: profiler and counters.
    runner::ReplicationSpec traced = specs.front();
    enable_obs(traced);
    construct(traced);
    runner::ReplicationResult result;
    timed.push_back(run_session(c, traced, *session, &result));
    l.run_on_s = timed.back().run_s;
    for (std::size_t k = 0; k < continu::net::kTrafficClassCount; ++k) {
      l.messages += session->traffic().messages(static_cast<continu::net::TrafficClass>(k));
    }
    l.control_overhead = result.control_overhead;
    if (result.obs == nullptr) throw std::runtime_error("traced session has no obs report");
    add_report(l, *result.obs);
  } catch (const std::exception& e) {
    c.op(w.name, {std::string("threw: ") + e.what()});
  }
  session.reset();
  check_timed(c, specs, timed, reference_fingerprints(c, specs, 1), versus);

  l.session_ms = {l.run_off_s * 1e3};
  l.idle_ms = 0.0;  // one session, one job
  emit_layer_metrics(c, l);
}

// --- the sweep ---------------------------------------------------------------------

void sweep_workload(Context& c) {
  // Set-up: every spec and its snapshot. Each scenario keeps its own
  // overlay; paired scenarios (ContinuStreaming against a baseline)
  // share a trace seed and therefore one snapshot.
  std::vector<runner::ReplicationSpec> specs;
  std::map<std::uint64_t, std::shared_ptr<const trace::TraceSnapshot>> snapshots;
  double generate_s = 0.0;
  for (const char* name : kSweepScenarios) {
    const runner::Scenario scenario = *runner::find_scenario(name);
    runner::ReplicationSpec base =
        runner::spec_for(scenario, runner::replication_seed(kSeedBase, c.opt.seed));
    base.duration = kSweepDuration;
    base.stable_from = kSweepStableFrom;
    base.config.threads = 1;
    auto& snapshot = snapshots[base.trace.seed];
    if (snapshot == nullptr) {
      generate_s += c.spans.time("trace::generate_snapshot", [&] {
        snapshot =
            std::make_shared<const trace::TraceSnapshot>(trace::generate_snapshot(base.trace));
      });
    }
    base.snapshot = snapshot;
    for (runner::ReplicationSpec& spec : runner::replicate(base, kSweepReplications)) {
      specs.push_back(std::move(spec));
    }
  }
  const double setup_s = static_cast<double>(now_ns() - c.t0_ns) * 1e-9;

  // One round is one run_all over every spec; a round's sessions are
  // Timed entries whose run_s is unused.
  const runner::ExperimentRunner pool(kSweepJobs, 1);
  std::vector<double> walls;
  std::vector<Timed> timed;
  std::vector<double> continuity(specs.size(), 0.0);
  const auto run_round = [&](const std::vector<runner::ReplicationSpec>& which) {
    std::vector<runner::ReplicationResult> results;
    try {
      walls.push_back(c.spans.time("ExperimentRunner::run_all",
                                   [&] { results = pool.run_all(which); }));
    } catch (const std::exception& e) {
      for (const auto& spec : which) {
        c.op(spec.label, {std::string("run_all threw: ") + e.what()});
      }
      return results;
    }
    c.spans.time("runner::result_fingerprint", [&] {
      for (std::size_t i = 0; i < results.size(); ++i) {
        Timed t;
        t.spec = i;
        t.fingerprint = runner::result_fingerprint(results[i]);
        t.facts = facts_of(which[i], results[i]);
        timed.push_back(std::move(t));
        continuity[i] = results[i].stable_continuity;
      }
    });
    return results;
  };

  Ledger l;
  l.generate_ms = generate_s * 1e3;
  double rss = 0.0;
  if (!c.opt.trace) {
    double timed_s = 0.0;
    bool ok = true;
    while (ok && timed_s < c.opt.seconds) {
      ok = !run_round(specs).empty();
      if (ok) timed_s += walls.back();
    }
    rss = peak_rss_mib();
  } else {
    const std::vector<runner::ReplicationResult> off = run_round(specs);
    l.run_off_s = walls.empty() ? 0.0 : walls.back();
    for (const auto& r : off) l.control_overhead += r.control_overhead / specs.size();
    std::vector<runner::ReplicationSpec> traced = specs;
    for (auto& spec : traced) enable_obs(spec);
    for (const auto& r : run_round(traced)) {
      l.run_on_s = walls.back();
      if (r.obs != nullptr) add_report(l, *r.obs);
    }
  }

  // Check (a): every session against a serial run_one of its spec.
  check_timed(c, specs, timed, reference_fingerprints(c, specs, 1, &l.session_ms),
              "run_all jobs " + std::to_string(pool.jobs()) + " vs serial run_one");
  // Fig. 6: ContinuStreaming above CoolStreaming on the churned pair
  // (the last round's results; every round computes the same ones).
  double continu = 0.0, cool = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string& label = specs[i].label;
    if (label.rfind(std::string(kChurnedContinu) + " ", 0) == 0) continu += continuity[i];
    if (label.rfind(std::string(kChurnedCool) + " ", 0) == 0) cool += continuity[i];
  }
  const std::string order = check_churn_order(continu / kSweepReplications,
                                              cool / kSweepReplications);
  if (!order.empty()) c.problems.push_back(order);

  if (!c.opt.trace) {
    c.metric("setup_s", setup_s, "s");
    c.metric("run_s", median(walls), "s");
    c.metric("peak_rss_mib", rss, "MiB");
    return;
  }

  // Layers that need a live session: the first spec, run directly.
  try {
    const runner::ReplicationSpec& spec = specs.front();
    std::unique_ptr<core::Session> session;
    l.construct_ms = 1e3 * c.spans.time("Session::Session", [&] {
      session = std::make_unique<core::Session>(spec.config, *spec.snapshot);
    });
    c.spans.time("Session::run", [&] { session->run(spec.duration); });
    const double heap = heap_in_use_bytes();
    core::MemoryFootprint fp;
    c.spans.time("Session::memory_footprint", [&] { fp = session->memory_footprint(); });
    l.bytes_per_node = fp.per_node_bytes();
    l.heap_outside_mib = (heap - static_cast<double>(fp.total_bytes())) / (1024.0 * 1024.0);
    for (std::size_t k = 0; k < continu::net::kTrafficClassCount; ++k) {
      l.messages += session->traffic().messages(static_cast<continu::net::TrafficClass>(k));
    }
    c.op(spec.label + " (direct)", {});
  } catch (const std::exception& e) {
    c.op(specs.front().label + " (direct)", {std::string("threw: ") + e.what()});
  }
  double serial_ms = 0.0;
  for (const double ms : l.session_ms) serial_ms += ms;
  l.idle_ms = static_cast<double>(pool.jobs()) * l.run_off_s * 1e3 - serial_ms;
  emit_layer_metrics(c, l);
}

// --- self-test -----------------------------------------------------------------------

int run_self_test() {
  const runner::Scenario scenario = *runner::find_scenario("static_small");
  runner::ReplicationSpec spec = runner::spec_for(scenario, 7);
  spec.duration = kSessionDuration;
  spec.stable_from = kSessionStableFrom;
  const trace::TraceSnapshot snapshot = trace::generate_snapshot(spec.trace);
  core::Session session(spec.config, snapshot);
  session.run(spec.duration);
  const runner::ReplicationResult result = result_of(spec, session);
  std::printf("self-test on %s, %g s:\n", scenario.name.c_str(), spec.duration);
  const int missed = self_test(facts_of(spec, result, session),
                               runner::result_fingerprint(result));
  std::printf("self-test: %s\n", missed == 0 ? "every perturbation caught" : "FAILED");
  return missed == 0 ? 0 : 1;
}

// --- main --------------------------------------------------------------------------

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]\n"
               "       %s --self-test\nworkloads:",
               argv0, argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

void print_result(const Context& c) {
  const bool correct = c.problems.empty() && c.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed));
  for (std::size_t i = 0; i < c.metrics.size(); ++i) {
    const Metric& m = c.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Context c;
  c.t0_ns = now_ns();
  continu::util::set_log_level(continu::util::LogLevel::kWarn);

  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return run_self_test();
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      c.opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      c.opt.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      c.opt.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && c.opt.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      c.opt.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--out") {
      c.opt.out = value;
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (c.opt.workload == w.name) workload = &w;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || workload == nullptr) {
    return usage(argv[0]);
  }

  if (workload->scenario != nullptr) {
    session_workload(c, *workload);
  } else {
    sweep_workload(c);
  }

  for (const std::string& p : c.problems) std::fprintf(stderr, "perfbench: FAIL %s\n", p.c_str());
  std::error_code ec;
  std::filesystem::create_directories(c.opt.out, ec);
  const std::string spans_path = c.opt.out + "/spans-" + c.opt.workload + "-seed" +
                                 std::to_string(c.opt.seed) + "-trace" +
                                 (c.opt.trace ? "1" : "0") + ".json";
  if (!c.spans.write_json(spans_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", spans_path.c_str());
  }
  print_result(c);
  return c.problems.empty() && c.failed == 0 ? 0 : 1;
}
