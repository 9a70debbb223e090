// CorrelationTable on its own — no runtime, no fabric: every awaited
// reply is resolved exactly once, by a reply (take), a deadline
// (take_due), a peer-down sweep (take_for) or the halt drain (close).
#include "pm2/correlation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace pm2 {
namespace {

using Pending = CorrelationTable::Pending;

MigrationRollback fake_rollback() {
  MigrationRollback rb;
  // Never dereferenced by the table.
  rb.thread = reinterpret_cast<marcel::Thread*>(uintptr_t{0x1000});
  rb.id = 42;
  rb.runs = {{3, 1}, {7, 2}};
  return rb;
}

std::vector<uint64_t> deadlines_of(const std::vector<Pending>& ps) {
  std::vector<uint64_t> out;
  for (const Pending& p : ps) out.push_back(p.deadline_ns);
  return out;
}

TEST(CorrelationTable, ReplyResolvesOnceAndLateReplyCountsOnce) {
  CorrelationTable table;
  auto [corr, fut] = table.open(/*dest=*/1, /*deadline_ns=*/100);
  ASSERT_NE(corr, 0u);
  EXPECT_EQ(table.next_deadline(), 100u);

  std::optional<Pending> p = table.take(corr);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->dest, 1u);
  p->promise.set_value({1, 2, 3});
  ASSERT_TRUE(fut.ready());
  EXPECT_FALSE(fut.failed());
  EXPECT_EQ(fut.take(), (std::vector<uint8_t>{1, 2, 3}));

  // Neither the deadline nor a peer-down sweep can resolve it again.
  EXPECT_TRUE(table.take_due(1000).empty());
  EXPECT_TRUE(table.take_for(1).empty());
  EXPECT_EQ(table.next_deadline(), UINT64_MAX);

  // A duplicate reply is dropped and counted exactly once.
  EXPECT_EQ(table.late_replies(), 0u);
  EXPECT_FALSE(table.take(corr).has_value());
  EXPECT_EQ(table.late_replies(), 1u);
}

TEST(CorrelationTable, CorrelationIdsOnlyGrow) {
  CorrelationTable table;
  uint64_t prev = 0;
  for (int i = 0; i < 8; ++i) {
    uint64_t corr = table.open(0, 0).corr;
    EXPECT_GT(corr, prev);
    prev = corr;
  }
}

TEST(CorrelationTableDeathTest, UnknownCorrAtOrAboveCounterFailsWhileOpen) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        CorrelationTable table;
        uint64_t corr = table.open(0, 0).corr;
        (void)table.take(corr + 1);
      },
      "no pending waiter");
  EXPECT_DEATH(
      {
        CorrelationTable table;
        (void)table.take(1);  // the counter starts at 1
      },
      "no pending waiter");
}

TEST(CorrelationTable, TakeForSkipsUnshippedMigrations) {
  CorrelationTable table;
  uint64_t call = table.open(2, 0).corr;
  uint64_t other = table.open(3, 0).corr;
  uint64_t mig = table.open(2, /*deadline_ns=*/50, fake_rollback()).corr;
  // A rollback entry's deadline waits for the ship.
  EXPECT_EQ(table.next_deadline(), UINT64_MAX);

  std::vector<Pending> swept = table.take_for(2);
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_FALSE(swept[0].rollback.has_value());
  swept[0].promise.set_error("peer down");

  // Shipped, destination still up: the deadline is armed now.
  EXPECT_FALSE(table.arm_after_ship(mig, [] { return false; }).has_value());
  EXPECT_EQ(table.next_deadline(), 50u);
  swept = table.take_for(2);
  ASSERT_EQ(swept.size(), 1u);
  ASSERT_TRUE(swept[0].rollback.has_value());
  EXPECT_TRUE(swept[0].rollback->shipped);
  EXPECT_EQ(swept[0].rollback->id, 42u);
  EXPECT_EQ(swept[0].rollback->runs.size(), 2u);
  // The sweep removed it: its stale heap entry is skipped.
  EXPECT_TRUE(table.take_due(100).empty());

  EXPECT_FALSE(table.take(call).has_value());  // late: swept before
  EXPECT_TRUE(table.take(other).has_value());
}

TEST(CorrelationTable, ArmAfterShipHandsBackEntryWhenDestinationDown) {
  CorrelationTable table;
  uint64_t mig = table.open(1, 0, fake_rollback()).corr;
  std::optional<Pending> lost = table.arm_after_ship(mig, [] { return true; });
  ASSERT_TRUE(lost.has_value());
  EXPECT_TRUE(lost->rollback->shipped);

  // An ack that beat the ship leaves nothing to arm.
  uint64_t acked = table.open(1, 10, fake_rollback()).corr;
  ASSERT_TRUE(table.take(acked).has_value());
  EXPECT_FALSE(table.arm_after_ship(acked, [] { return true; }).has_value());
  EXPECT_EQ(table.next_deadline(), UINT64_MAX);
}

TEST(CorrelationTable, TakeDueReturnsDeadlineOrderAndSkipsResolved) {
  CorrelationTable table;
  table.open(0, 30);
  uint64_t c10 = table.open(0, 10).corr;
  uint64_t c20 = table.open(0, 20).corr;
  table.open(0, 40);
  table.open(0, 0);  // never armed
  EXPECT_EQ(table.next_deadline(), 10u);

  ASSERT_TRUE(table.take(c20).has_value());  // resolved by its reply
  EXPECT_TRUE(table.take_due(5).empty());
  EXPECT_EQ(deadlines_of(table.take_due(35)), (std::vector<uint64_t>{10, 30}));
  EXPECT_EQ(table.next_deadline(), 40u);
  EXPECT_EQ(deadlines_of(table.take_due(UINT64_MAX - 1)),
            (std::vector<uint64_t>{40}));
  EXPECT_EQ(table.next_deadline(), UINT64_MAX);
  EXPECT_FALSE(table.take(c10).has_value());  // late: timed out before
}

TEST(CorrelationTable, CloseHandsBackEverythingAndRefusesLaterOpens) {
  CorrelationTable table;
  uint64_t a = table.open(1, 10).corr;
  table.open(2, 0, fake_rollback());  // unshipped: close takes it anyway
  table.open(3, 0);
  std::vector<Pending> all = table.close();
  EXPECT_EQ(all.size(), 3u);
  EXPECT_EQ(table.next_deadline(), UINT64_MAX);
  EXPECT_TRUE(table.take_due(UINT64_MAX - 1).empty());

  auto [corr, fut] = table.open(1, 10);
  EXPECT_EQ(corr, 0u);
  ASSERT_TRUE(fut.ready());
  EXPECT_TRUE(fut.failed());
  EXPECT_EQ(fut.error(), "session halting");

  // Replies racing the drain are tolerated once closed, even unknown ones.
  EXPECT_FALSE(table.take(a).has_value());
  EXPECT_FALSE(table.take(1000).has_value());
}

}  // namespace
}  // namespace pm2
