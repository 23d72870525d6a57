#include "probes.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/parallel/executor.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

/// Wall-time budget of one probe.
constexpr std::uint64_t kProbeBudgetNs = 200'000'000;

volatile std::uint64_t g_sink = 0;

void spin_for(std::uint64_t ns) {
  const std::uint64_t t0 = now_ns();
  while (now_ns() - t0 < ns) {
  }
}

}  // namespace

double probe_fork_us(const ForkShape& shape, unsigned threads) {
  continu::sim::parallel::ParallelExecutor exec(threads);
  const std::size_t shards = std::max<std::size_t>(1, shape.shards);
  const continu::sim::parallel::ParallelExecutor::ShardFn fn =
      [&shape](std::size_t, std::size_t, std::size_t) { spin_for(shape.shard_ns); };
  const std::uint64_t serial_ns = std::max<std::uint64_t>(1, shards * shape.shard_ns);
  const std::size_t forks =
      std::clamp<std::uint64_t>(kProbeBudgetNs / serial_ns, 50, 20'000);
  exec.for_shards(shards, 1, fn);  // wake the pool once before timing
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < forks; ++i) exec.for_shards(shards, 1, fn);
  return static_cast<double>(now_ns() - t0) * 1e-3 / static_cast<double>(forks);
}

double probe_queue_ns(std::size_t depth, std::uint64_t seed) {
  continu::sim::EventQueue queue;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> delay(0.0, 1.0);
  std::array<double, 4096> delays{};
  for (double& d : delays) d = delay(rng);

  std::array<std::uint64_t, 6> capture{};  // 48 bytes, inline in the slot
  for (std::uint64_t& c : capture) c = rng();
  const auto action = [capture] {
    g_sink = g_sink + (capture[0] ^ capture[1] ^ capture[2] ^ capture[3] ^
                       capture[4] ^ capture[5]);
  };
  depth = std::max<std::size_t>(1, depth);
  for (std::size_t i = 0; i < depth; ++i) {
    (void)queue.emplace(delays[i % delays.size()], action);
  }

  // Steady state: each op pops the earliest event, runs it and
  // schedules a replacement a random delay later, so depth stays put.
  const auto op = [&](std::size_t i) {
    continu::sim::EventQueue::DueEvent due;
    (void)queue.acquire_due(std::numeric_limits<double>::infinity(), due);
    queue.execute_and_release(due);
    (void)queue.emplace(due.time + delays[i & (delays.size() - 1)], action);
  };
  for (std::size_t i = 0; i < 100'000; ++i) op(i);
  std::size_t ops = 0;
  const std::uint64_t t0 = now_ns();
  std::uint64_t elapsed = 0;
  while (elapsed < kProbeBudgetNs) {
    for (std::size_t i = 0; i < 10'000; ++i) op(ops + i);
    ops += 10'000;
    elapsed = now_ns() - t0;
  }
  return static_cast<double>(elapsed) / static_cast<double>(ops);
}

}  // namespace perfbench
