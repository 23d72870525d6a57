#pragma once
// Layer probes: the fork/join executor and the event queue timed
// through their public functions, on shapes taken from the traced
// session's own profile. They give an outside view of the two layers
// until spans inside the program exist.

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// One fork shape: shards per fork and busy work per shard.
struct ForkShape {
  std::size_t shards = 1;
  std::uint64_t shard_ns = 0;
};

/// Mean wall time of one ParallelExecutor::for_shards call of `shape`
/// at `threads` threads (1 = the inline path), in microseconds.
[[nodiscard]] double probe_fork_us(const ForkShape& shape, unsigned threads);

/// Mean wall time of one EventQueue schedule plus one pop-and-execute
/// of a 48-byte capture, with `depth` events pending, in nanoseconds.
[[nodiscard]] double probe_queue_ns(std::size_t depth, std::uint64_t seed);

}  // namespace perfbench
