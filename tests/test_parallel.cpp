// Unit tests for the deterministic work pool (util/parallel).

#include "util/parallel.h"

#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace xtest::util {
namespace {

// ---------------------------------------------------------------------------
// Static range partitioning.

TEST(PartitionRange, CoversEveryIndexExactlyOnce) {
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                            std::size_t{7}, std::size_t{16}, std::size_t{97},
                            std::size_t{1000}}) {
    for (unsigned chunks : {1u, 2u, 3u, 4u, 8u, 16u, 100u}) {
      const auto parts = partition_range(count, chunks);
      ASSERT_EQ(parts.size(), chunks);
      std::vector<int> seen(count, 0);
      std::size_t expect_begin = 0;
      for (const auto& [begin, end] : parts) {
        // Contiguous, ascending, within range.
        EXPECT_EQ(begin, expect_begin);
        EXPECT_LE(begin, end);
        EXPECT_LE(end, count);
        for (std::size_t i = begin; i < end; ++i) ++seen[i];
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, count) << count << "/" << chunks;
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(seen[i], 1) << "index " << i << " with " << count << "/"
                              << chunks;
    }
  }
}

TEST(PartitionRange, ChunkSizesDifferByAtMostOne) {
  for (std::size_t count : {std::size_t{10}, std::size_t{13},
                            std::size_t{64}, std::size_t{1001}}) {
    for (unsigned chunks : {2u, 3u, 7u, 8u, 12u}) {
      const auto parts = partition_range(count, chunks);
      std::size_t lo = count, hi = 0;
      for (const auto& [begin, end] : parts) {
        lo = std::min(lo, end - begin);
        hi = std::max(hi, end - begin);
      }
      EXPECT_LE(hi - lo, 1u);
    }
  }
}

TEST(PartitionRange, RangeSmallerThanChunkCountLeavesTrailingEmpty) {
  const auto parts = partition_range(3, 8);
  ASSERT_EQ(parts.size(), 8u);
  for (unsigned w = 0; w < 3; ++w) {
    EXPECT_EQ(parts[w].first, w);
    EXPECT_EQ(parts[w].second, w + 1);
  }
  for (unsigned w = 3; w < 8; ++w)
    EXPECT_EQ(parts[w].first, parts[w].second);
}

TEST(PartitionRange, EmptyRangeIsAllEmptyChunks) {
  for (unsigned chunks : {1u, 4u, 9u}) {
    const auto parts = partition_range(0, chunks);
    ASSERT_EQ(parts.size(), chunks);
    for (const auto& [begin, end] : parts) EXPECT_EQ(begin, end);
  }
}

TEST(PartitionRange, ZeroChunksClampsToOne) {
  const auto parts = partition_range(5, 0);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].first, 0u);
  EXPECT_EQ(parts[0].second, 5u);
}

// ---------------------------------------------------------------------------
// The pool itself.

TEST(ParallelFor, EveryIndexVisitedExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{64}, std::size_t{1000}}) {
      std::vector<int> visits(count, 0);
      parallel_for_chunks(count, {threads},
                          [&](std::size_t begin, std::size_t end, unsigned) {
                            // Chunks are disjoint, so these writes race-
                            // freely touch distinct elements.
                            for (std::size_t i = begin; i < end; ++i)
                              ++visits[i];
                          });
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(visits[i], 1) << "threads=" << threads << " count=" << count
                                << " index=" << i;
    }
  }
}

TEST(ParallelFor, SingleThreadRunsInlineOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id body_thread;
  unsigned body_worker = 99;
  parallel_for_chunks(10, {1},
                      [&](std::size_t begin, std::size_t end, unsigned w) {
                        EXPECT_EQ(begin, 0u);
                        EXPECT_EQ(end, 10u);
                        body_thread = std::this_thread::get_id();
                        body_worker = w;
                      });
  EXPECT_EQ(body_thread, caller);
  EXPECT_EQ(body_worker, 0u);
}

TEST(ParallelFor, WorkerExceptionPropagatesWithoutDeadlock) {
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    EXPECT_THROW(
        parallel_for_chunks(
            16, {threads},
            [&](std::size_t begin, std::size_t end, unsigned) {
              for (std::size_t i = begin; i < end; ++i)
                if (i == 11) throw std::runtime_error("defect 11 exploded");
            }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ParallelFor, AllWorkersThrowingStillJoinsAndRethrows) {
  EXPECT_THROW(parallel_for_chunks(
                   8, {4},
                   [](std::size_t, std::size_t, unsigned) {
                     throw std::runtime_error("every worker fails");
                   }),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Per-item fault containment.

TEST(ParallelForItems, ExceptionQuarantinesOnlyTheOffendingItem) {
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    std::vector<int> visits(64, 0);
    const auto errors =
        parallel_for_items(64, {threads}, [&](std::size_t i, unsigned) {
          if (i == 11) throw std::runtime_error("defect 11 exploded");
          ++visits[i];
        });
    ASSERT_EQ(errors.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(errors[0].index, 11u);
    EXPECT_EQ(errors[0].message, "defect 11 exploded");
    for (std::size_t i = 0; i < visits.size(); ++i)
      EXPECT_EQ(visits[i], i == 11 ? 0 : 1) << i;
  }
}

TEST(ParallelForItems, ErrorsComeBackInAscendingIndexOrder) {
  for (unsigned threads : {1u, 3u, 8u}) {
    const auto errors =
        parallel_for_items(100, {threads}, [&](std::size_t i, unsigned) {
          if (i % 7 == 0) throw std::runtime_error("boom");
        });
    ASSERT_EQ(errors.size(), 15u);
    for (std::size_t k = 1; k < errors.size(); ++k)
      EXPECT_LT(errors[k - 1].index, errors[k].index);
  }
}

TEST(ParallelForItems, NonStdExceptionIsCapturedToo) {
  const auto errors =
      parallel_for_items(4, {2}, [&](std::size_t i, unsigned) {
        if (i == 2) throw 42;  // not derived from std::exception
      });
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].index, 2u);
  EXPECT_FALSE(errors[0].message.empty());
}

TEST(ParallelForItems, CleanRunReturnsNoErrors) {
  std::vector<int> visits(37, 0);
  const auto errors = parallel_for_items(
      37, {4}, [&](std::size_t i, unsigned) { ++visits[i]; });
  EXPECT_TRUE(errors.empty());
  for (int v : visits) EXPECT_EQ(v, 1);
}

// ---------------------------------------------------------------------------
// Configuration resolution.

TEST(ParallelConfigTest, ExplicitThreadsWinAndClampToItems) {
  const ParallelConfig four{4};
  EXPECT_EQ(four.resolve(100), 4u);
  EXPECT_EQ(four.resolve(2), 2u);   // never more workers than items
  EXPECT_EQ(four.resolve(0), 1u);   // empty range still resolves
  const ParallelConfig one{1};
  EXPECT_EQ(one.resolve(100), 1u);
}

TEST(ParallelConfigTest, AutoReadsEnvironment) {
  const char* saved = std::getenv("XTEST_THREADS");
  const std::string saved_value = saved ? saved : "";

  ::setenv("XTEST_THREADS", "3", 1);
  EXPECT_EQ(ParallelConfig{}.resolve(100), 3u);
  EXPECT_EQ(ParallelConfig{5}.resolve(100), 5u);  // explicit wins

  // Unset, or set to garbage: the hardware concurrency.
  ::unsetenv("XTEST_THREADS");
  const unsigned hardware = ParallelConfig{}.resolve(100);
  EXPECT_GE(hardware, 1u);
  ::setenv("XTEST_THREADS", "garbage", 1);
  EXPECT_EQ(ParallelConfig{}.resolve(100), hardware);

  if (saved)
    ::setenv("XTEST_THREADS", saved_value.c_str(), 1);
  else
    ::unsetenv("XTEST_THREADS");
}

TEST(CampaignStatsTest, ThroughputAndJson) {
  CampaignStats s;
  EXPECT_EQ(s.defects_per_second(), 0.0);  // no division by zero
  s.defects_simulated = 500;
  s.simulated_cycles = 123456;
  s.wall_seconds = 2.0;
  s.threads = 4;
  EXPECT_DOUBLE_EQ(s.defects_per_second(), 250.0);
  s.detected = 490;
  s.sim_errors = 2;
  s.retries = 1;
  const std::string j = s.json("unit");
  EXPECT_NE(j.find("\"campaign\":\"unit\""), std::string::npos);
  EXPECT_NE(j.find("\"threads\":4"), std::string::npos);
  EXPECT_NE(j.find("\"defects\":500"), std::string::npos);
  EXPECT_NE(j.find("\"simulated_cycles\":123456"), std::string::npos);
  EXPECT_NE(j.find("\"defects_per_second\":250.0"), std::string::npos);
  EXPECT_NE(j.find("\"detected\":490"), std::string::npos);
  EXPECT_NE(j.find("\"sim_errors\":2"), std::string::npos);
  EXPECT_NE(j.find("\"retries\":1"), std::string::npos);
}

}  // namespace
}  // namespace xtest::util
