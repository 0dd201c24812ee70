// Tests for the flight recorder: ring retention and wraparound,
// slow-log pinning and bounding, JSON rendering, and concurrent
// writers (the TSan job runs this binary).

#include "obs/flight.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

namespace cafe::obs {
namespace {

FlightRecord MakeRecord(uint64_t trace_id, uint64_t total_micros) {
  FlightRecord r;
  r.trace_id = trace_id;
  r.queue_micros = 7;
  r.total_micros = total_micros;
  r.trace.queries = 1;
  r.trace.candidates_aligned = 3;
  r.hits = 2;
  return r;
}

TEST(FlightRecorderTest, RecordAndRecentNewestFirst) {
  FlightRecorder rec({.capacity = 8, .slow_micros = 1000000});
  rec.Record(MakeRecord(1, 10));
  rec.Record(MakeRecord(2, 20));
  rec.Record(MakeRecord(3, 30));
  EXPECT_EQ(rec.recorded(), 3u);

  std::vector<FlightRecord> recent = rec.Recent(10);
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].trace_id, 3u);
  EXPECT_EQ(recent[1].trace_id, 2u);
  EXPECT_EQ(recent[2].trace_id, 1u);
  EXPECT_EQ(recent[0].total_micros, 30u);
  EXPECT_EQ(recent[0].queue_micros, 7u);
  EXPECT_EQ(recent[0].hits, 2u);
  EXPECT_EQ(recent[0].trace.candidates_aligned, 3u);
  EXPECT_GT(recent[0].completed_unix_micros, 0);  // stamped by Record

  // `max` truncates after the newest-first sort.
  std::vector<FlightRecord> top = rec.Recent(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].trace_id, 3u);
  EXPECT_EQ(top[1].trace_id, 2u);
}

TEST(FlightRecorderTest, RingWrapsKeepingNewest) {
  FlightRecorder rec({.capacity = 4, .slow_micros = 1000000});
  for (uint64_t i = 1; i <= 10; ++i) rec.Record(MakeRecord(i, i));
  EXPECT_EQ(rec.recorded(), 10u);

  std::vector<FlightRecord> recent = rec.Recent(100);
  ASSERT_EQ(recent.size(), 4u);  // the ring holds only the last 4
  EXPECT_EQ(recent[0].trace_id, 10u);
  EXPECT_EQ(recent[1].trace_id, 9u);
  EXPECT_EQ(recent[2].trace_id, 8u);
  EXPECT_EQ(recent[3].trace_id, 7u);
}

TEST(FlightRecorderTest, SlowLogPinsOverThresholdOnly) {
  FlightRecorder rec(
      {.capacity = 2, .slow_micros = 1000, .slow_capacity = 8});
  rec.Record(MakeRecord(1, 999));    // fast
  rec.Record(MakeRecord(2, 1000));   // exactly at threshold: slow
  rec.Record(MakeRecord(3, 5000));   // slow
  rec.Record(MakeRecord(4, 10));     // fast
  EXPECT_EQ(rec.slow_recorded(), 2u);

  // The fast burst wrapped the 2-slot ring past the slow records...
  std::vector<FlightRecord> recent = rec.Recent(10);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].trace_id, 4u);
  // ...but the slow log still has them, newest first.
  std::vector<FlightRecord> slow = rec.Slow(10);
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].trace_id, 3u);
  EXPECT_EQ(slow[1].trace_id, 2u);
}

TEST(FlightRecorderTest, SlowLogIsBounded) {
  FlightRecorder rec(
      {.capacity = 4, .slow_micros = 1, .slow_capacity = 3});
  for (uint64_t i = 1; i <= 10; ++i) rec.Record(MakeRecord(i, 100));
  EXPECT_EQ(rec.slow_recorded(), 10u);  // monotonic, not bounded
  std::vector<FlightRecord> slow = rec.Slow(100);
  ASSERT_EQ(slow.size(), 3u);  // bounded, oldest dropped
  EXPECT_EQ(slow[0].trace_id, 10u);
  EXPECT_EQ(slow[2].trace_id, 8u);
}

TEST(FlightRecorderTest, ThresholdZeroPinsEverything) {
  FlightRecorder rec(
      {.capacity = 8, .slow_micros = 0, .slow_capacity = 8});
  rec.Record(MakeRecord(1, 0));  // even a 0us request pins
  rec.Record(MakeRecord(2, 5));
  EXPECT_EQ(rec.slow_recorded(), 2u);
  EXPECT_EQ(rec.Slow(10).size(), 2u);
}

TEST(FlightRecorderTest, JsonRendering) {
  FlightRecorder rec({.capacity = 4, .slow_micros = 0});
  FlightRecord r = MakeRecord(0xdeadbeef, 42);
  r.truncated = true;
  rec.Record(r);

  std::string recent = rec.RecentJson(10);
  EXPECT_NE(recent.find("\"records\":["), std::string::npos) << recent;
  EXPECT_NE(recent.find("\"trace_id\":\"00000000deadbeef\""),
            std::string::npos)
      << recent;
  EXPECT_NE(recent.find("\"total_us\":42"), std::string::npos);
  EXPECT_NE(recent.find("\"truncated\":true"), std::string::npos);
  EXPECT_NE(recent.find("\"deadline_expired\":false"), std::string::npos);
  // The full pruning funnel rides along.
  EXPECT_NE(recent.find("\"candidates_aligned\":3"), std::string::npos);

  std::string slow = rec.SlowJson(10);
  EXPECT_NE(slow.find("\"threshold_micros\":0"), std::string::npos);
  EXPECT_NE(slow.find("\"trace_id\":\"00000000deadbeef\""),
            std::string::npos);
}

TEST(FlightRecorderTest, EmptyRecorder) {
  FlightRecorder rec({.capacity = 4});
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.Recent(10).empty());
  EXPECT_TRUE(rec.Slow(10).empty());
  EXPECT_EQ(rec.RecentJson(10), "{\"records\":[]}");
}

TEST(FlightRecorderTest, CapacityClampedToOne) {
  FlightRecorder rec({.capacity = 0, .slow_capacity = 0});
  rec.Record(MakeRecord(1, 1));
  rec.Record(MakeRecord(2, 2));
  EXPECT_EQ(rec.capacity(), 1u);
  ASSERT_EQ(rec.Recent(10).size(), 1u);
  EXPECT_EQ(rec.Recent(10)[0].trace_id, 2u);
}

TEST(FlightRecorderTest, ConcurrentWritersAndReaders) {
  // Hammer a small ring from several threads while a reader sweeps it;
  // the TSan CI job runs this test to certify the slot locking. The
  // invariant: every record the sweep returns is internally consistent
  // (trace_id encodes the writer's payload).
  FlightRecorder rec(
      {.capacity = 16, .slow_micros = 1u << 30, .slow_capacity = 4});
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 2000;

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * kPerThread + i + 1;
        rec.Record(MakeRecord(id, id * 3));
      }
    });
  }
  std::thread reader([&rec] {
    for (int i = 0; i < 200; ++i) {
      for (const FlightRecord& r : rec.Recent(16)) {
        // total_micros must be the matching payload for this trace_id —
        // a torn slot would break this.
        EXPECT_EQ(r.total_micros, r.trace_id * 3);
      }
    }
  });
  for (std::thread& w : writers) w.join();
  reader.join();

  EXPECT_EQ(rec.recorded(), kThreads * kPerThread);
  std::vector<FlightRecord> recent = rec.Recent(16);
  EXPECT_EQ(recent.size(), 16u);
  std::set<uint64_t> ids;
  for (const FlightRecord& r : recent) ids.insert(r.trace_id);
  EXPECT_EQ(ids.size(), recent.size());  // all distinct
}

}  // namespace
}  // namespace cafe::obs
