#pragma once
// Deterministic, fast random number generation for the simulator.
//
// Every stochastic component in the library draws from tlb::util::Rng
// (xoshiro256**), seeded via splitmix64. Trials derive independent streams
// from (master_seed, stream_id) so that multi-threaded experiment runs are
// reproducible regardless of scheduling order.

#include <cstdint>
#include <limits>

namespace tlb::util {

/// splitmix64: tiny, high-quality 64-bit mixer. Used to seed xoshiro and to
/// derive per-trial streams. (Public-domain algorithm by Sebastiano Vigna.)
class SplitMix64 {
 public:
  /// Construct from an arbitrary 64-bit seed.
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derive a statistically independent sub-seed from a master seed and a
/// stream index (e.g. trial number). Pure function: same inputs, same output.
constexpr std::uint64_t derive_seed(std::uint64_t master,
                                    std::uint64_t stream) noexcept {
  SplitMix64 mixer(master ^ (0xd6e8feb86659fd93ULL * (stream + 1)));
  mixer.next();
  return mixer.next();
}

/// xoshiro256**: the library-wide RNG. Satisfies
/// std::uniform_random_bit_generator, so it plugs into <random> distributions,
/// but the hot paths below (uniform01, uniform_int) avoid <random> overhead.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed via splitmix64 so that low-entropy seeds still fill all 256 bits.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64 random bits. Every draw in the library funnels through here,
  /// which is what makes the dsan draw accounting below exhaustive.
  result_type operator()() noexcept {
    if (draws_ != nullptr) ++*draws_;
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Attach a draw counter (determinism-sanitizer probe): every subsequent
  /// operator() call increments *counter. nullptr detaches. The counter is
  /// not owned and must outlive the attachment; detached (the default) the
  /// only cost is one predictable branch per draw.
  void attach_probe(std::uint64_t* counter) noexcept { draws_ = counter; }

  /// Position-sensitive hash of the generator state (the "RNG cursor").
  /// Two generators that consumed the same stream agree; one extra draw
  /// anywhere changes it. Never advances the state.
  [[nodiscard]] std::uint64_t state_hash() const noexcept {
    std::uint64_t h = 14695981039346656037ULL;
    for (const std::uint64_t s : s_) {
      for (int i = 0; i < 8; ++i) {
        h = (h ^ ((s >> (8 * i)) & 0xffU)) * 1099511628211ULL;
      }
    }
    return h;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
  /// Unbiased; `bound` must be > 0. Inline because the engines draw one
  /// per migrating task.
  std::uint64_t uniform_below(std::uint64_t bound) noexcept {
    // Lemire 2019: multiply-shift with rejection of the biased low region.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]): p <= 0
  /// never succeeds, p >= 1 always succeeds, and NaN — which no clamp can
  /// place — is treated as 0 explicitly instead of falling out of an
  /// unordered comparison. Always consumes exactly one draw, so a call
  /// site's stream position never depends on the value of p.
  bool bernoulli(double p) noexcept {
    const double u = uniform01();
    if (!(p > 0.0)) return false;  // p <= 0 and NaN
    return p >= 1.0 || u < p;
  }

  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Standard normal via Marsaglia polar method.
  double normal() noexcept;

  /// Bounded Pareto on [lo, hi] with tail index alpha (finite 2nd moment for
  /// alpha > 2). Used for heavy-tailed task-weight experiments.
  double bounded_pareto(double alpha, double lo, double hi) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
  // dsan draw-accounting probe; null = detached.
  std::uint64_t* draws_ = nullptr;
  // Marsaglia polar caches one deviate between calls.
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace tlb::util
