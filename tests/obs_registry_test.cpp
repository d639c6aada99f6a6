// Tests for the obs metrics registry: handle semantics, registration
// dedup, determinism segregation, multi-thread shard merging.
#include "tlb/obs/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using tlb::obs::Kind;
using tlb::obs::MetricClass;
using tlb::obs::MetricId;
using tlb::obs::Registry;
using tlb::obs::Snapshot;

TEST(ObsRegistryTest, InvalidIdIsANoOpEverywhere) {
  Registry reg;
  MetricId none;
  EXPECT_FALSE(none.valid());
  reg.add(none, 42);       // must not crash or register anything
  reg.observe(none, 1.0);
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.snapshot().entries.empty());
}

TEST(ObsRegistryTest, CounterAccumulatesAndSnapshotReads) {
  Registry reg;
  const MetricId c = reg.counter("departures", MetricClass::kDeterministic);
  ASSERT_TRUE(c.valid());
  reg.add(c, 3);
  reg.add(c, 4);
  const Snapshot snap = reg.snapshot();
  const Snapshot::Entry* e = snap.find("departures");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, Kind::kCounter);
  EXPECT_EQ(e->value, 7u);
  EXPECT_FALSE(e->timing);
}

TEST(ObsRegistryTest, RegistrationDedupsByName) {
  Registry reg;
  const MetricId a = reg.counter("coins", MetricClass::kDeterministic);
  const MetricId b = reg.counter("coins", MetricClass::kDeterministic);
  EXPECT_EQ(a.metric, b.metric);
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_EQ(reg.size(), 1u);
  // Both handles feed the same slot.
  reg.add(a, 1);
  reg.add(b, 2);
  EXPECT_EQ(reg.snapshot().find("coins")->value, 3u);
}

TEST(ObsRegistryTest, ShapeMismatchThrows) {
  Registry reg;
  reg.counter("x", MetricClass::kDeterministic);
  EXPECT_THROW(reg.histogram("x", 0, 1, 4, MetricClass::kDeterministic),
               std::invalid_argument);
  reg.histogram("h", 0.0, 10.0, 5, MetricClass::kDeterministic);
  EXPECT_THROW(
      reg.histogram("h", 0.0, 10.0, 6, MetricClass::kDeterministic),
      std::invalid_argument);
  // Timing-class mismatch on the same name is also a shape conflict: one
  // name cannot be deterministic in one snapshot part and timing in another.
  EXPECT_THROW(reg.counter("x", MetricClass::kTiming), std::invalid_argument);
}

TEST(ObsRegistryTest, HistogramBucketsAndClamping) {
  Registry reg;
  const MetricId h =
      reg.histogram("round_us", 0.0, 10.0, 5, MetricClass::kDeterministic);
  reg.observe(h, 0.5);    // bucket 0
  reg.observe(h, 1.9);    // bucket 0
  reg.observe(h, 2.0);    // bucket 1
  reg.observe(h, -7.0);   // clamps to bucket 0
  reg.observe(h, 123.0);  // clamps to bucket 4
  const Snapshot snap = reg.snapshot();
  const Snapshot::Entry* e = snap.find("round_us");
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->buckets.size(), 5u);
  EXPECT_EQ(e->buckets[0], 3u);
  EXPECT_EQ(e->buckets[1], 1u);
  EXPECT_EQ(e->buckets[4], 1u);
}

TEST(ObsRegistryTest, TimingSegregationInJson) {
  Registry reg;
  reg.add(reg.counter("det", MetricClass::kDeterministic), 5);
  reg.add(reg.counter("wall_ns", MetricClass::kTiming), 9);
  const Snapshot snap = reg.snapshot();
  const std::string det = snap.json(Snapshot::Part::kDeterministic);
  const std::string timing = snap.json(Snapshot::Part::kTiming);
  const std::string all = snap.json(Snapshot::Part::kAll);
  EXPECT_NE(det.find("\"det\":5"), std::string::npos);
  EXPECT_EQ(det.find("wall_ns"), std::string::npos);
  EXPECT_NE(timing.find("\"wall_ns\":9"), std::string::npos);
  EXPECT_EQ(timing.find("\"det\""), std::string::npos);
  EXPECT_NE(all.find("det"), std::string::npos);
  EXPECT_NE(all.find("wall_ns"), std::string::npos);
  EXPECT_FALSE(snap.empty(Snapshot::Part::kDeterministic));
  EXPECT_FALSE(snap.empty(Snapshot::Part::kTiming));
}

TEST(ObsRegistryTest, MultiThreadShardsMergeExactly) {
  Registry reg;
  const MetricId c = reg.counter("hits", MetricClass::kDeterministic);
  const MetricId h =
      reg.histogram("vals", 0.0, 8.0, 8, MetricClass::kDeterministic);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, c, h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        reg.add(c, 1);
        reg.observe(h, static_cast<double>(i % 8) + 0.5);
      }
    });
  }
  for (auto& w : workers) w.join();  // join = quiescent point
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("hits")->value, kThreads * kPerThread);
  std::uint64_t total = 0;
  for (std::uint64_t b : snap.find("vals")->buckets) total += b;
  EXPECT_EQ(total, kThreads * kPerThread);
}

TEST(ObsRegistryTest, DeltaSubtractsCountersAndBuckets) {
  Registry reg;
  const MetricId c = reg.counter("n", MetricClass::kDeterministic);
  const MetricId h =
      reg.histogram("h", 0.0, 4.0, 2, MetricClass::kDeterministic);
  reg.add(c, 10);
  reg.observe(h, 1.0);
  const Snapshot before = reg.snapshot();
  reg.add(c, 7);
  reg.observe(h, 3.0);
  const Snapshot delta = reg.snapshot().delta(before);
  EXPECT_EQ(delta.find("n")->value, 7u);
  EXPECT_EQ(delta.find("h")->buckets[0], 0u);
  EXPECT_EQ(delta.find("h")->buckets[1], 1u);
}

TEST(ObsRegistryTest, SlotCapacityThrows) {
  Registry reg;
  // Histograms consume `bins` slots each; blow past kMaxSlots.
  std::size_t used = 0;
  bool threw = false;
  for (int i = 0; used <= Registry::kMaxSlots; ++i) {
    try {
      std::string name = "h";
      name += std::to_string(i);
      reg.histogram(name, 0.0, 1.0, 64, MetricClass::kDeterministic);
      used += 64;
    } catch (const std::length_error&) {
      threw = true;
      break;
    }
  }
  EXPECT_TRUE(threw);
}

TEST(ObsRegistryTest, SnapshotJsonIsDeterministicAcrossThreadCounts) {
  // Same counter deltas from 1 vs 4 threads must serialise identically —
  // the determinism contract the engine metrics rely on.
  const auto run = [](int threads) {
    Registry reg;
    const MetricId c = reg.counter("work", MetricClass::kDeterministic);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&reg, c, threads] {
        for (int i = 0; i < 1200 / threads; ++i) reg.add(c, 1);
      });
    }
    for (auto& w : workers) w.join();
    return reg.snapshot().json(Snapshot::Part::kDeterministic);
  };
  EXPECT_EQ(run(1), run(4));
}

}  // namespace
