#include "tlb/workload/arrival.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "spec_parse.hpp"

namespace tlb::workload {

namespace {

constexpr const char* kKind = "arrival process";

using detail::fmt_param;

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  detail::bad_call(kKind, spec, why);
}

}  // namespace

std::uint64_t sample_poisson(util::Rng& rng, double mean) {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation, rounded and clamped; fine at this mean for the
    // per-round arrival counts we model.
    const double x = mean + std::sqrt(mean) * rng.normal();
    return x <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(x));
  }
  // Knuth: count exponential interarrivals until they exceed the mean.
  const double limit = std::exp(-mean);
  double product = rng.uniform01();
  std::uint64_t count = 0;
  while (product > limit) {
    ++count;
    product *= rng.uniform01();
  }
  return count;
}

// ---- batch ----------------------------------------------------------------

std::uint64_t BatchArrivals::arrivals(long, util::Rng&) const { return 0; }
std::string BatchArrivals::name() const { return "batch"; }

// ---- poisson --------------------------------------------------------------

PoissonArrivals::PoissonArrivals(double rate, double completion)
    : rate_(rate), completion_(completion) {
  // Written so NaN fails the bound; an infinite rate would make every
  // round's arrival count unbounded.
  if (!std::isfinite(rate) || !(rate > 0.0)) {
    throw std::invalid_argument("poisson: rate finite and > 0");
  }
  if (!(completion > 0.0 && completion <= 1.0)) {
    throw std::invalid_argument("poisson: completion in (0, 1]");
  }
}

std::uint64_t PoissonArrivals::arrivals(long, util::Rng& rng) const {
  return sample_poisson(rng, rate_);
}

std::string PoissonArrivals::name() const {
  return "poisson(" + fmt_param(rate_) + "," + fmt_param(completion_) + ")";
}

// ---- burst ----------------------------------------------------------------

BurstArrivals::BurstArrivals(long period, std::uint64_t size,
                             double completion)
    : period_(period), size_(size), completion_(completion) {
  if (period < 1) throw std::invalid_argument("burst: period >= 1");
  if (size < 1) throw std::invalid_argument("burst: size >= 1");
  if (!(completion > 0.0 && completion <= 1.0)) {
    throw std::invalid_argument("burst: completion in (0, 1]");
  }
}

std::uint64_t BurstArrivals::arrivals(long round, util::Rng&) const {
  return round % period_ == 0 ? size_ : 0;
}

std::string BurstArrivals::name() const {
  return "burst(" + std::to_string(period_) + "," + std::to_string(size_) +
         "," + fmt_param(completion_) + ")";
}

// ---- parser ---------------------------------------------------------------

std::unique_ptr<ArrivalProcess> parse_arrival_process(const std::string& spec) {
  const detail::ParsedCall call = detail::parse_call(kKind, spec);
  auto num = [&spec](const std::string& arg) {
    return detail::arg_double(kKind, spec, arg);
  };
  if (call.name == "batch") {
    detail::need_args(kKind, spec, call, 0, 0);
    return std::make_unique<BatchArrivals>();
  }
  if (call.name == "poisson") {
    detail::need_args(kKind, spec, call, 1, 2);
    const double mu = call.args.size() == 2 ? num(call.args[1]) : 0.02;
    return std::make_unique<PoissonArrivals>(num(call.args[0]), mu);
  }
  if (call.name == "burst") {
    detail::need_args(kKind, spec, call, 2, 3);
    const double mu = call.args.size() == 3 ? num(call.args[2]) : 0.02;
    const auto period = detail::arg_uint(kKind, spec, call.args[0]);
    const auto size = detail::arg_uint(kKind, spec, call.args[1]);
    return std::make_unique<BurstArrivals>(static_cast<long>(period), size,
                                           mu);
  }
  bad_spec(spec, "unknown process (want " + arrival_process_grammar() + ")");
}

std::string arrival_process_grammar() {
  return "batch | poisson(rate[,completion]) | burst(period,size[,completion])";
}

}  // namespace tlb::workload
