#pragma once
// tlb::obs — metrics registry with a lock-free hot path.
//
// The registry hands out cheap integer handles (MetricId) for named
// counters and fixed-bucket histograms. Increments go to per-thread
// shards — plain (non-atomic) word writes into a thread-private slot array,
// no locks, no CAS — and snapshot() merges the shards. The intended
// discipline mirrors the engines' phase-1 sampling: workers increment while
// they run, the owner snapshots only at quiescent points (between rounds,
// after wait_idle()), so the merge never races a writer.
//
// Detachment is the default everywhere observability is threaded through
// the stack: components hold a `Registry*` that defaults to nullptr and an
// invalid MetricId, and every probe (obs::PhaseSpan, Registry::add on an
// invalid id) collapses to a pointer test — no clock reads, no stores. An
// engine with no registry attached takes no timestamps at all.
//
// Determinism discipline: every metric is registered as either
// deterministic (a pure function of the seed — departures, flush checks,
// rounds) or timing (wall-clock durations, pool busy/idle, anything that
// varies with the thread count). Snapshot::json(Part) segregates the two
// exactly like the perf suite's --timings=false flag, so metrics blocks can
// ride the byte-determinism CI checks.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tlb::obs {

/// Monotonic nanoseconds (steady clock). The one clock every obs component
/// reads, so spans from different probes share a timebase.
std::uint64_t monotonic_ns() noexcept;

/// Metric kinds. Counters accumulate uint64 deltas, histograms count
/// observations into fixed equal-width buckets (util::Histogram's layout).
enum class Kind : std::uint8_t { kCounter, kHistogram };

/// Determinism class of a metric. Every registration names one explicitly
/// (lint rule D5) — there is deliberately no default, because a metric
/// silently landing in the deterministic part would break the
/// byte-determinism CI diffs the moment its value depends on scheduling.
///   kDeterministic  a pure function of the seed (departures, rounds, ...)
///   kTiming         wall-clock durations, pool busy/idle, anything that
///                   varies with the thread count or machine
enum class MetricClass : std::uint8_t { kDeterministic, kTiming };

/// Handle to a registered metric. Default-constructed ids are invalid and
/// make every hot-path call a no-op, so detached components need no
/// branches beyond the id test.
struct MetricId {
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t metric = kInvalid;  ///< index into the registration table
  std::uint32_t slot = 0;           ///< base slot in the per-thread shards
  bool valid() const noexcept { return metric != kInvalid; }
};

/// A merged point-in-time view of every registered metric, in registration
/// order. Safe to keep after the registry advanced (plain data).
struct Snapshot {
  /// Which determinism class to render/compare.
  enum class Part { kDeterministic, kTiming, kAll };

  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    bool timing = false;
    std::uint64_t value = 0;             ///< counters
    double lo = 0.0;                     ///< histogram range
    double hi = 0.0;
    std::vector<std::uint64_t> buckets;  ///< histogram counts
  };
  std::vector<Entry> entries;

  /// Entry by name (nullptr when absent).
  [[nodiscard]] const Entry* find(const std::string& name) const;
  /// True iff no entry belongs to `part`.
  [[nodiscard]] bool empty(Part part) const;
  /// Deterministic JSON object {"name": value, ...} restricted to `part`.
  /// Counters render as integers, histograms as {"lo","hi","total",
  /// "buckets"}. Key order is registration order, so the same data always
  /// serialises to the same bytes.
  [[nodiscard]] std::string json(Part part) const;
  /// Counter/histogram difference `*this - earlier`. Entries only present
  /// here are kept as-is, so a snapshot taken before a metric existed still
  /// subtracts cleanly.
  [[nodiscard]] Snapshot delta(const Snapshot& earlier) const;
};

/// The registry. Registration (counter/histogram) takes a mutex and
/// dedups by name — registering the same name with the same shape returns
/// the same handle, so per-trial engine constructions share one metric.
/// add()/observe() are lock-free plain writes into the calling thread's
/// shard. snapshot() merges under the mutex and must only run while no
/// other thread is mid-increment (quiescent point).
class Registry {
 public:
  /// Capacity of the per-thread slot arrays (counters take 1 slot,
  /// histograms `bins` slots). Exceeding it throws at registration time.
  static constexpr std::size_t kMaxSlots = 512;
  /// Maximum number of registered metrics. Fixed so the metric table never
  /// reallocates — observe() reads it lock-free against concurrent
  /// registration of *other* metrics (entries are immutable once their
  /// MetricId has been handed out).
  static constexpr std::size_t kMaxMetrics = 256;

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register (or look up) a monotonically accumulating counter.
  MetricId counter(const std::string& name, MetricClass cls);
  /// Register (or look up) an equal-width histogram over [lo, hi] (values
  /// outside clamp to the edge bins — util::Histogram's layout).
  MetricId histogram(const std::string& name, double lo, double hi,
                     std::size_t bins, MetricClass cls);

  /// Accumulate `delta` into a counter. Lock-free; no-op on an invalid id.
  void add(MetricId id, std::uint64_t delta);
  /// Count one observation into a histogram. Lock-free; no-op when invalid.
  void observe(MetricId id, double x);

  /// Merge every thread's shard into one Snapshot. Callers must be at a
  /// quiescent point (no concurrent add/observe) — e.g. after
  /// ThreadPool::wait_idle(), which establishes the happens-before edge.
  [[nodiscard]] Snapshot snapshot() const;

  /// Number of registered metrics.
  std::size_t size() const;

 private:
  struct Metric {
    std::string name;
    Kind kind;
    bool timing;
    std::uint32_t slot;   // base slot in the per-thread shards
    std::uint32_t bins;   // histogram bucket count (else 0)
    double lo = 0.0;
    double hi = 0.0;
    double bin_width = 0.0;
  };
  struct Shard {
    std::array<std::uint64_t, kMaxSlots> slots{};
  };

  MetricId register_metric(const std::string& name, Kind kind, bool timing,
                           std::uint32_t slots_needed, double lo, double hi,
                           std::uint32_t bins);
  /// The calling thread's slot array for this registry, created on first
  /// touch (mutex only on the miss path; hits are a tiny thread-local scan).
  std::uint64_t* local_slots();

  const std::uint64_t id_;  // process-unique instance id for the tl cache
  mutable std::mutex mutex_;
  std::vector<Metric> metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint32_t next_slot_ = 0;
};

}  // namespace tlb::obs
