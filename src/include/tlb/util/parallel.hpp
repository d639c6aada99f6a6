#pragma once
// Deterministic parallel loops.
//
// parallel_for: static-chunk parallel loop over [0, count). Designed for
// experiment trials: each index is independent, the body is coarse-grained,
// and determinism comes from per-index seeding (the body must derive
// randomness from the index, never from shared mutable state).
//
// parallel_shard: fixed-grain sharding of [0, count) over a reusable
// ThreadPool. The shard boundaries are a pure function of (count, grain) —
// the pool (and therefore the thread count) only decides which worker runs
// which shard, never what a shard contains. A body that derives its
// randomness from the shard index and writes only shard-private (or
// shard-disjoint) state therefore produces bitwise-identical results for
// any thread count, including the no-pool sequential path. This is the
// primitive behind the engines' parallel phase-1 departure sampling and
// the exact engine's sharded merge and bulk scatter.

#include <cstddef>
#include <functional>

namespace tlb::util {

class ThreadPool;

/// Execute body(i) for every i in [0, count), distributing contiguous chunks
/// over `threads` std::threads (0 = hardware concurrency). Falls back to a
/// plain loop when count or threads is small. Exceptions from workers are
/// rethrown on the caller's thread (first one wins).
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

/// Number of fixed-size shards parallel_shard splits [0, count) into:
/// ceil(count / grain), with grain clamped to >= 1. Pure function of
/// (count, grain) so callers can pre-size per-shard buffers.
std::size_t shard_count(std::size_t count, std::size_t grain) noexcept;

/// A shard body: (shard index, begin, end) with [begin, end) a contiguous
/// sub-range of [0, count). Shard `s` always covers
/// [s*grain, min(count, (s+1)*grain)).
using ShardFn =
    std::function<void(std::size_t, std::size_t, std::size_t)>;

/// Run body(s, lo, hi) for every shard of [0, count). With a null pool (or
/// a single shard) the shards run on the calling thread in ascending order;
/// otherwise they are distributed over the pool's workers. The partition is
/// identical either way, so a body meeting the determinism contract above
/// yields the same results regardless of pool size. Worker exceptions are
/// rethrown on the caller's thread (first one wins). The pool must be idle
/// and dedicated to this call until it returns.
void parallel_shard(std::size_t count, std::size_t grain, ThreadPool* pool,
                    const ShardFn& body);

}  // namespace tlb::util
