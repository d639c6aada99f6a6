#include "tlb/obs/registry.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>

#include "tlb/util/histogram.hpp"
#include "tlb/util/json.hpp"

namespace tlb::obs {

std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

// Thread-local shard cache. Keyed by a process-unique registry id rather
// than the registry pointer: a destroyed registry's id never recurs, so a
// stale cache entry can at worst miss, never alias a new registry at the
// same address.
struct TlEntry {
  std::uint64_t registry_id;
  std::uint64_t* slots;
};
thread_local std::vector<TlEntry> tl_shards;

std::atomic<std::uint64_t> next_registry_id{1};

}  // namespace

Registry::Registry() : id_(next_registry_id.fetch_add(1)) {
  metrics_.reserve(kMaxMetrics);
}

Registry::~Registry() = default;

MetricId Registry::register_metric(const std::string& name, Kind kind,
                                   bool timing, std::uint32_t slots_needed,
                                   double lo, double hi, std::uint32_t bins) {
  std::lock_guard lock(mutex_);
  for (std::uint32_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (m.name != name) continue;
    if (m.kind != kind || m.timing != timing || m.bins != bins ||
        m.lo != lo || m.hi != hi) {
      throw std::invalid_argument("obs::Registry: metric '" + name +
                                  "' re-registered with a different shape");
    }
    return MetricId{i, m.slot};
  }
  if (metrics_.size() >= kMaxMetrics) {
    throw std::length_error("obs::Registry: metric capacity exhausted");
  }
  Metric m;
  m.name = name;
  m.kind = kind;
  m.timing = timing;
  m.bins = bins;
  m.lo = lo;
  m.hi = hi;
  m.bin_width = bins > 0 ? (hi - lo) / static_cast<double>(bins) : 0.0;
  if (next_slot_ + slots_needed > kMaxSlots) {
    throw std::length_error("obs::Registry: slot capacity exhausted");
  }
  m.slot = next_slot_;
  next_slot_ += slots_needed;
  metrics_.push_back(std::move(m));
  return MetricId{static_cast<std::uint32_t>(metrics_.size() - 1),
                  metrics_.back().slot};
}

MetricId Registry::counter(const std::string& name, MetricClass cls) {
  return register_metric(name, Kind::kCounter, cls == MetricClass::kTiming, 1,
                         0.0, 0.0, 0);
}

MetricId Registry::histogram(const std::string& name, double lo, double hi,
                             std::size_t bins, MetricClass cls) {
  const bool timing = cls == MetricClass::kTiming;
  if (!(lo < hi)) {
    throw std::invalid_argument("obs::Registry: histogram needs lo < hi");
  }
  if (bins == 0) {
    throw std::invalid_argument("obs::Registry: histogram needs bins >= 1");
  }
  return register_metric(name, Kind::kHistogram, timing,
                         static_cast<std::uint32_t>(bins), lo, hi,
                         static_cast<std::uint32_t>(bins));
}

std::uint64_t* Registry::local_slots() {
  for (const TlEntry& e : tl_shards) {
    if (e.registry_id == id_) return e.slots;
  }
  std::uint64_t* slots;
  {
    std::lock_guard lock(mutex_);
    shards_.push_back(std::make_unique<Shard>());
    slots = shards_.back()->slots.data();
  }
  tl_shards.push_back(TlEntry{id_, slots});
  return slots;
}

void Registry::add(MetricId id, std::uint64_t delta) {
  if (!id.valid()) return;
  local_slots()[id.slot] += delta;
}

void Registry::observe(MetricId id, double x) {
  if (!id.valid()) return;
  const Metric& m = metrics_[id.metric];
  const std::size_t b =
      util::Histogram::bucket_index(m.lo, m.bin_width, m.bins, x);
  local_slots()[id.slot + b] += 1;
}

Snapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  // Merge all shards into one flat slot array first.
  std::array<std::uint64_t, kMaxSlots> merged{};
  for (const auto& shard : shards_) {
    for (std::size_t s = 0; s < kMaxSlots; ++s) merged[s] += shard->slots[s];
  }
  Snapshot snap;
  snap.entries.reserve(metrics_.size());
  for (const Metric& m : metrics_) {
    Snapshot::Entry e;
    e.name = m.name;
    e.kind = m.kind;
    e.timing = m.timing;
    switch (m.kind) {
      case Kind::kCounter:
        e.value = merged[m.slot];
        break;
      case Kind::kHistogram:
        e.lo = m.lo;
        e.hi = m.hi;
        e.buckets.assign(merged.begin() + m.slot,
                         merged.begin() + m.slot + m.bins);
        for (std::uint64_t c : e.buckets) e.value += c;
        break;
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

std::size_t Registry::size() const {
  std::lock_guard lock(mutex_);
  return metrics_.size();
}

const Snapshot::Entry* Snapshot::find(const std::string& name) const {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

bool Snapshot::empty(Part part) const {
  for (const Entry& e : entries) {
    if (part == Part::kAll || e.timing == (part == Part::kTiming)) {
      return false;
    }
  }
  return true;
}

std::string Snapshot::json(Part part) const {
  util::Json obj;
  for (const Entry& e : entries) {
    if (part != Part::kAll && e.timing != (part == Part::kTiming)) continue;
    switch (e.kind) {
      case Kind::kCounter:
        obj.add(e.name, e.value);
        break;
      case Kind::kHistogram: {
        util::Json h;
        h.add("lo", e.lo);
        h.add("hi", e.hi);
        h.add("total", e.value);
        std::string buckets = "[";
        for (std::size_t b = 0; b < e.buckets.size(); ++b) {
          if (b > 0) buckets += ',';
          buckets += std::to_string(e.buckets[b]);
        }
        buckets += ']';
        h.add_raw("buckets", buckets);
        obj.add_raw(e.name, h.str());
        break;
      }
    }
  }
  return obj.str();
}

Snapshot Snapshot::delta(const Snapshot& earlier) const {
  Snapshot out = *this;
  for (Entry& e : out.entries) {
    const Entry* base = earlier.find(e.name);
    if (base == nullptr || base->kind != e.kind) continue;
    switch (e.kind) {
      case Kind::kCounter:
        e.value -= base->value;
        break;
      case Kind::kHistogram:
        e.value -= base->value;
        for (std::size_t b = 0;
             b < e.buckets.size() && b < base->buckets.size(); ++b) {
          e.buckets[b] -= base->buckets[b];
        }
        break;
    }
  }
  return out;
}

}  // namespace tlb::obs
