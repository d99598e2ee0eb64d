#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "util/error.hpp"
#include "vmpi/runtime.hpp"

namespace minivpic::vmpi {
namespace {

TEST(Runtime, RunsEveryRankOnce) {
  std::mutex m;
  std::set<int> ranks;
  run(5, [&](Comm& comm) {
    std::lock_guard<std::mutex> lock(m);
    EXPECT_TRUE(ranks.insert(comm.rank()).second);
    EXPECT_EQ(comm.size(), 5);
  });
  EXPECT_EQ(ranks.size(), 5u);
}

TEST(Runtime, SingleRank) {
  int calls = 0;
  run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Runtime, RejectsZeroRanks) {
  EXPECT_THROW(run(0, [](Comm&) {}), Error);
}

TEST(Runtime, RejectsNullFunction) { EXPECT_THROW(run(1, nullptr), Error); }

TEST(Runtime, PropagatesException) {
  EXPECT_THROW(run(3,
                   [](Comm& comm) {
                     if (comm.rank() == 1) throw Error("rank 1 failed");
                     // Other ranks block; poisoning must release them.
                     comm.barrier();
                   }),
               Error);
}

TEST(Runtime, FailureReleasesBlockedRecv) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 0) throw Error("boom");
                     int v;
                     comm.recv(0, 0, std::span<int>(&v, 1));  // would hang
                   }),
               Error);
}

TEST(Runtime, FailureReleasesBlockedProbe) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 0) throw Error("boom");
                     comm.probe(0, 0);
                   }),
               Error);
}

TEST(Runtime, NonErrorExceptionAlsoPropagates) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 0) throw std::bad_alloc();
                     comm.barrier();
                   }),
               std::bad_alloc);
}

TEST(Runtime, SequentialRunsAreIndependent) {
  for (int i = 0; i < 3; ++i) {
    std::atomic<int> count{0};
    run(4, [&](Comm& comm) {
      comm.barrier();
      count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 4);
  }
}

TEST(Runtime, Rank0RunsOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
    }
  });
}

}  // namespace
}  // namespace minivpic::vmpi
