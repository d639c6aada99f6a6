// Differential tests for the load-distribution statistics layer: the
// LoadIndex order-statistic queries (rank_values / max_indexed_load /
// visit_buckets) against an O(n log n) full-sort reference, and
// LoadStatsCalc's indexed path against its scan path — with EXPECT_EQ on
// doubles throughout, because bit-identity across the two paths is the
// contract the analytics observer's byte-determinism rests on. Covers
// unit / uniform / zipf-ish / pareto-ish weight shapes, zero loads, n = 1,
// ties sharing buckets, and the extreme-octave clamp ends; and, round by
// round, the churn engine's index-served reads against a scan of its loads.
#include "tlb/core/load_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "tlb/core/dynamic.hpp"
#include "tlb/core/load_index.hpp"
#include "tlb/util/rng.hpp"

namespace {

using namespace tlb::core;
using tlb::graph::Node;
using tlb::util::Rng;

/// The four weight shapes the suite sweeps (labels for failure messages).
std::vector<std::pair<std::string, std::vector<double>>> load_shapes(
    Node n, Rng& rng) {
  std::vector<std::pair<std::string, std::vector<double>>> shapes;
  std::vector<double> unit(n, 1.0);
  shapes.emplace_back("unit", unit);
  std::vector<double> uniform(n);
  for (auto& v : uniform) v = 1.0 + rng.uniform01() * 7.0;
  shapes.emplace_back("uniform", uniform);
  std::vector<double> zipf(n);
  for (Node r = 0; r < n; ++r) {
    zipf[r] = 64.0 / std::pow(static_cast<double>(r % 64 + 1), 1.1);
  }
  shapes.emplace_back("zipf", zipf);
  std::vector<double> pareto(n);
  for (auto& v : pareto) {
    v = std::pow(1.0 - rng.uniform01(), -1.0 / 2.5);
  }
  shapes.emplace_back("pareto", pareto);
  return shapes;
}

/// Reference: exact order statistic by full sort.
double sorted_rank(std::vector<double> loads, std::size_t rank) {
  std::sort(loads.begin(), loads.end());
  return loads[rank];
}

LoadIndex built_index(const std::vector<double>& loads) {
  LoadIndex idx;
  idx.reset(static_cast<Node>(loads.size()));
  idx.ensure([&](Node r) { return loads[r]; });
  return idx;
}

TEST(LoadIndexQueryTest, RankValuesMatchFullSortAcrossShapes) {
  Rng rng(7);
  for (const Node n : {1u, 2u, 7u, 64u, 513u}) {
    for (const auto& [label, loads] : load_shapes(n, rng)) {
      const LoadIndex idx = built_index(loads);
      std::vector<std::size_t> ranks;
      for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
        ranks.push_back(LoadStats::quantile_rank(q, loads.size()));
      }
      std::sort(ranks.begin(), ranks.end());
      std::vector<double> got;
      idx.rank_values(ranks, got);
      ASSERT_EQ(got.size(), ranks.size());
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        EXPECT_EQ(got[i], sorted_rank(loads, ranks[i]))
            << label << " n=" << n << " rank=" << ranks[i];
      }
    }
  }
}

TEST(LoadIndexQueryTest, EveryRankMatchesFullSort) {
  // Dense check: all n order statistics at once, including heavy ties
  // (many loads share a bucket) — the boundary-bucket nth_element path.
  Rng rng(11);
  const Node n = 257;
  std::vector<double> loads(n);
  for (auto& v : loads) {
    v = static_cast<double>(rng.uniform_below(8));  // ties + zeros
  }
  const LoadIndex idx = built_index(loads);
  std::vector<std::size_t> ranks(n);
  for (Node r = 0; r < n; ++r) ranks[r] = r;
  std::vector<double> got;
  idx.rank_values(ranks, got);
  std::vector<double> want = loads;
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got.size(), want.size());
  for (Node r = 0; r < n; ++r) EXPECT_EQ(got[r], want[r]) << "rank " << r;
}

TEST(LoadIndexQueryTest, ExtremeOctavesAndZeros) {
  // Clamp ends of the bucket range: denormal-adjacent and huge magnitudes
  // plus zeros and negatives (all parked in bucket 0).
  std::vector<double> loads = {0.0,
                               -3.0,
                               std::ldexp(1.0, -320),
                               std::ldexp(1.7, -320),
                               std::ldexp(1.0, 320),
                               std::ldexp(1.9, 320),
                               1.0,
                               1.0};
  const LoadIndex idx = built_index(loads);
  std::vector<std::size_t> ranks(loads.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) ranks[i] = i;
  std::vector<double> got;
  idx.rank_values(ranks, got);
  std::vector<double> want = loads;
  std::sort(want.begin(), want.end());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
  EXPECT_EQ(idx.max_indexed_load(), std::ldexp(1.9, 320));
}

TEST(LoadIndexQueryTest, MaxIndexedLoadMatchesScan) {
  Rng rng(23);
  for (const Node n : {1u, 5u, 300u}) {
    for (const auto& [label, loads] : load_shapes(n, rng)) {
      const LoadIndex idx = built_index(loads);
      EXPECT_EQ(idx.max_indexed_load(),
                *std::max_element(loads.begin(), loads.end()))
          << label << " n=" << n;
    }
  }
  // All-zero loads: everything in bucket 0, max is 0.
  const std::vector<double> zeros(16, 0.0);
  EXPECT_EQ(built_index(zeros).max_indexed_load(), 0.0);
}

TEST(LoadIndexQueryTest, RankValuesValidatesInput) {
  const std::vector<double> loads = {1.0, 2.0, 3.0};
  const LoadIndex idx = built_index(loads);
  std::vector<double> out;
  EXPECT_THROW(idx.rank_values({2, 1}, out), std::out_of_range);  // unsorted
  EXPECT_THROW(idx.rank_values({3}, out), std::out_of_range);     // >= n
  LoadIndex dormant;
  dormant.reset(3);
  EXPECT_THROW(dormant.rank_values({0}, out), std::out_of_range);
  // Empty rank list is a no-op, not an error.
  idx.rank_values({}, out);
  EXPECT_TRUE(out.empty());
}

TEST(LoadIndexQueryTest, VisitBucketsCoversEveryResourceInOrder) {
  Rng rng(31);
  const Node n = 200;
  std::vector<double> loads(n);
  for (auto& v : loads) v = rng.uniform01() * 100.0;
  const LoadIndex idx = built_index(loads);
  std::int32_t prev_bucket = -1;
  std::vector<bool> seen(n, false);
  std::size_t count = 0;
  idx.visit_buckets([&](std::int32_t bucket, const auto& members) {
    EXPECT_GT(bucket, prev_bucket);  // ascending, each bucket once
    prev_bucket = bucket;
    EXPECT_FALSE(members.empty());
    for (const Node r : members) {
      EXPECT_FALSE(seen[r]);
      seen[r] = true;
      EXPECT_EQ(LoadIndex::bucket_of(loads[r]), bucket);
      ++count;
    }
  });
  EXPECT_EQ(count, static_cast<std::size_t>(n));
}

TEST(LoadStatsCalcTest, IndexedPathBitIdenticalToScanPath) {
  Rng rng(47);
  LoadStatsCalc calc;
  for (const Node n : {1u, 2u, 63u, 512u}) {
    for (const auto& [label, loads] : load_shapes(n, rng)) {
      const double mean =
          std::accumulate(loads.begin(), loads.end(), 0.0) /
          static_cast<double>(n);
      for (const double T : {0.0, mean, mean * 1.25, 1e9}) {
        const LoadStats scan = calc.compute_scan(
            n, T, [&](Node r) { return loads[r]; });
        const LoadIndex idx = built_index(loads);
        const LoadStats indexed = calc.compute_indexed(idx, n, T);
        EXPECT_EQ(scan.max_load, indexed.max_load) << label;
        EXPECT_EQ(scan.mean_load, indexed.mean_load) << label;
        EXPECT_EQ(scan.p50, indexed.p50) << label;
        EXPECT_EQ(scan.p90, indexed.p90) << label;
        EXPECT_EQ(scan.p99, indexed.p99) << label;
        EXPECT_EQ(scan.overload_mass, indexed.overload_mass) << label;
        EXPECT_EQ(scan.overloaded, indexed.overloaded) << label;
        EXPECT_EQ(scan.imbalance, indexed.imbalance) << label;
        EXPECT_EQ(scan.threshold, indexed.threshold) << label;
      }
    }
  }
}

TEST(LoadStatsCalcTest, ZeroAndSingletonEdges) {
  LoadStatsCalc calc;
  // n = 0: all-zero stats, no quantile access.
  const LoadStats empty =
      calc.compute_scan(0, 1.0, [](Node) { return 0.0; });
  EXPECT_EQ(empty.n, 0u);
  EXPECT_EQ(empty.max_load, 0.0);
  EXPECT_EQ(empty.p99, 0.0);
  // n = 1: every quantile is the single load.
  const LoadStats one =
      calc.compute_scan(1, 1.0, [](Node) { return 5.0; });
  EXPECT_EQ(one.p50, 5.0);
  EXPECT_EQ(one.p90, 5.0);
  EXPECT_EQ(one.p99, 5.0);
  EXPECT_EQ(one.max_load, 5.0);
  EXPECT_EQ(one.overloaded, 1u);
  EXPECT_EQ(one.overload_mass, 4.0);
  EXPECT_EQ(one.imbalance, 1.0);
}

TEST(LoadStatsCalcTest, QuantileRankPinsEnds) {
  EXPECT_EQ(LoadStats::quantile_rank(0.5, 0), 0u);
  EXPECT_EQ(LoadStats::quantile_rank(0.0, 10), 0u);
  EXPECT_EQ(LoadStats::quantile_rank(1.0, 10), 9u);
  EXPECT_EQ(LoadStats::quantile_rank(0.5, 10), 4u);
  EXPECT_EQ(LoadStats::quantile_rank(0.99, 100), 98u);
}

TEST(DynamicLoadStatsTest, IndexServedReadsMatchAScan) {
  // The churn engine serves max_load() and its load statistics from the
  // tracker's LoadIndex while sparse threshold moves keep the index live,
  // and by a scan otherwise. After every round both reads must equal a scan
  // of loads() bit for bit. A burst in round 0 gives the loads some spread;
  // the trickle after it keeps most rounds on the sparse (index) side.
  DynamicConfig cfg;
  cfg.n = 1024;
  cfg.completion_rate = 0.001;
  cfg.classes = {{1.0, 0.9}, {8.0, 0.1}};
  cfg.arrival_fn = [n = cfg.n](long round, Rng&) -> std::uint64_t {
    return round == 0 ? 8u * n : 4u;
  };
  DynamicUserEngine engine(cfg);
  Rng rng(5);
  LoadStatsCalc served_calc, scan_calc;
  std::vector<double> loads;
  int live_rounds = 0;
  for (int t = 0; t < 300; ++t) {
    engine.step(rng);
    if (engine.overloaded_tracker().load_index().built()) ++live_rounds;
    engine.collect_loads(loads);
    const double scan_max = *std::max_element(loads.begin(), loads.end());
    EXPECT_EQ(engine.max_load(), scan_max) << "round " << t;
    LoadStats served;
    engine.collect_load_stats(served_calc, served);
    const LoadStats scan =
        scan_calc.compute_scan(cfg.n, engine.current_threshold(),
                               [&](Node r) { return loads[r]; });
    EXPECT_EQ(served.n, scan.n) << "round " << t;
    EXPECT_EQ(served.max_load, scan.max_load) << "round " << t;
    EXPECT_EQ(served.mean_load, scan.mean_load) << "round " << t;
    EXPECT_EQ(served.p50, scan.p50) << "round " << t;
    EXPECT_EQ(served.p90, scan.p90) << "round " << t;
    EXPECT_EQ(served.p99, scan.p99) << "round " << t;
    EXPECT_EQ(served.overload_mass, scan.overload_mass) << "round " << t;
    EXPECT_EQ(served.overloaded, scan.overloaded) << "round " << t;
    EXPECT_EQ(served.imbalance, scan.imbalance) << "round " << t;
    EXPECT_EQ(served.threshold, scan.threshold) << "round " << t;
  }
  // The index served most of the reads, so the comparison covered it.
  EXPECT_GT(live_rounds, 250);
}

}  // namespace
