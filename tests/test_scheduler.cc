/**
 * @file
 * Tests of the block schedulers: cyclic order, Gauss-Southwell priority
 * order, random coverage, activation/deactivation bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/options.hh"
#include "core/scheduler.hh"
#include "support/random.hh"

namespace graphabcd {
namespace {

TEST(Schedule, EveryNameRoundTripsAndUnknownNamesAreRejected)
{
    for (Schedule schedule :
         {Schedule::Cyclic, Schedule::Priority, Schedule::Random})
        EXPECT_EQ(parseSchedule(to_string(schedule)), schedule);
    EXPECT_EQ(parseSchedule("bogus"), std::nullopt);
    EXPECT_EQ(parseSchedule(""), std::nullopt);
}

TEST(Cyclic, SweepsInIdOrder)
{
    CyclicScheduler s(4);
    for (BlockId b = 0; b < 4; b++)
        s.activate(b, 1.0);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_EQ(s.next(), 1u);
    EXPECT_EQ(s.next(), 2u);
    EXPECT_EQ(s.next(), 3u);
    EXPECT_EQ(s.next(), std::nullopt);
}

TEST(Cyclic, ResumesFromCursorNotFromZero)
{
    CyclicScheduler s(4);
    s.activate(0, 1.0);
    s.activate(1, 1.0);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_EQ(s.next(), 1u);
    s.activate(0, 1.0);
    s.activate(3, 1.0);
    // Cursor sits at 2, so 3 comes before the wrap-around to 0.
    EXPECT_EQ(s.next(), 3u);
    EXPECT_EQ(s.next(), 0u);
}

TEST(Cyclic, DoubleActivationIsIdempotent)
{
    CyclicScheduler s(2);
    s.activate(1, 1.0);
    s.activate(1, 1.0);
    EXPECT_EQ(s.activeCount(), 1u);
    EXPECT_EQ(s.next(), 1u);
    EXPECT_TRUE(s.empty());
}

TEST(Priority, PicksLargestGradientFirst)
{
    PriorityScheduler s(4);
    s.activate(0, 1.0);
    s.activate(1, 5.0);
    s.activate(2, 3.0);
    EXPECT_EQ(s.next(), 1u);
    EXPECT_EQ(s.next(), 2u);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_TRUE(s.empty());
}

TEST(Priority, DeltasAccumulate)
{
    PriorityScheduler s(3);
    s.activate(0, 2.0);
    s.activate(1, 3.0);
    s.activate(0, 2.0);   // 0 now has 4.0 > 3.0
    EXPECT_EQ(s.next(), 0u);
    EXPECT_EQ(s.next(), 1u);
}

TEST(Priority, ProcessingResetsPriority)
{
    PriorityScheduler s(2);
    s.activate(0, 10.0);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_DOUBLE_EQ(s.priority(0), 0.0);
    s.activate(0, 1.0);
    s.activate(1, 2.0);
    EXPECT_EQ(s.next(), 1u);   // old 10.0 must not linger
}

TEST(Priority, RepeatedRoundsPopInPriorityOrder)
{
    PriorityScheduler s(3);
    for (int round = 0; round < 100; round++) {
        s.activate(0, 1.0);
        s.activate(1, 0.5);
        EXPECT_EQ(s.next(), 0u);
        EXPECT_EQ(s.next(), 1u);
        EXPECT_EQ(s.next(), std::nullopt);
    }
}

TEST(Priority, GrowthOfAnActiveBlockSiftsItsOneEntryUp)
{
    PriorityScheduler s(4);
    s.activate(0, 1.0);
    s.activate(1, 2.0);
    s.activate(2, 3.0);
    s.activate(0, 5.0);   // 0 now has 6.0: overtakes 2 and 1 in place
    EXPECT_EQ(s.activeCount(), 3u);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_EQ(s.next(), 2u);
    EXPECT_EQ(s.next(), 1u);
    EXPECT_EQ(s.next(), std::nullopt);
}

TEST(Priority, ZeroDeltaActivationDoesNotTouchTheHeap)
{
    // Blocks are legitimately activated with delta 0 (e.g. a scatter
    // whose values changed below tolerance elsewhere): the first call
    // enters the block, later ones neither re-enter nor sift it.
    PriorityScheduler s(2);
    s.activate(0, 0.0);
    EXPECT_EQ(s.counters().heapPushes, 1u);
    for (int i = 0; i < 1000; i++)
        s.activate(0, 0.0);
    EXPECT_EQ(s.counters().heapPushes, 1u);
    EXPECT_EQ(s.counters().refreshes, 0u);
    EXPECT_EQ(s.next(), 0u);                      // still schedulable
    EXPECT_EQ(s.next(), std::nullopt);
}

TEST(Priority, NegativeDeltaIsClampedAndDoesNotTouchTheHeap)
{
    PriorityScheduler s(2);
    s.activate(0, 4.0);
    for (int i = 0; i < 1000; i++)
        s.activate(0, -1.0);
    EXPECT_DOUBLE_EQ(s.priority(0), 4.0);   // clamped, never lowered
    EXPECT_EQ(s.counters().heapPushes, 1u);
    EXPECT_EQ(s.counters().refreshes, 0u);
    s.activate(1, 1.0);
    EXPECT_EQ(s.next(), 0u);   // gradient order preserved
    EXPECT_EQ(s.next(), 1u);
}

TEST(Priority, CountersTrackActivationsPushesAndRefreshes)
{
    // One heap entry per active block, however often it is activated:
    // re-activations that grow the priority sift that entry up.
    PriorityScheduler s(2);
    s.activate(0, 1.0);
    for (int i = 0; i < 1000; i++)
        s.activate(0, 1.0);
    EXPECT_EQ(s.counters().activations, 1001u);
    EXPECT_EQ(s.counters().heapPushes, 1u);
    EXPECT_EQ(s.counters().refreshes, 1000u);
    EXPECT_EQ(s.activeCount(), 1u);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_EQ(s.next(), std::nullopt);
    s.activate(0, 1.0);   // re-enters after processing
    EXPECT_EQ(s.counters().heapPushes, 2u);
}

// PriorityScheduler against a reference model.  The model maps block ->
// accumulated priority; every pop must return an active block of
// exactly maximal priority (the heap has one entry per block, sifted on
// every growth), and a full drain must empty the model exactly.
// Randomized over activation patterns with equal, zero and growing
// deltas, so ties and in-place sift-ups both occur.
TEST(Priority, RandomizedModelAudit)
{
    constexpr BlockId kBlocks = 16;
    Rng rng(0xab5eedULL);
    for (int round = 0; round < 50; round++) {
        PriorityScheduler s(kBlocks);
        std::map<BlockId, double> model;   // active -> priority
        std::vector<double> prio(kBlocks, 0.0);
        for (int op = 0; op < 400; op++) {
            if (rng.nextBounded(3) != 0) {
                const auto b =
                    static_cast<BlockId>(rng.nextBounded(kBlocks));
                const double d =
                    static_cast<double>(rng.nextBounded(4));
                if (d > 0.0)
                    prio[b] += d;
                model[b] = prio[b];
                s.activate(b, d);
            } else {
                auto got = s.next();
                if (model.empty()) {
                    EXPECT_EQ(got, std::nullopt);
                    continue;
                }
                ASSERT_TRUE(got.has_value());
                ASSERT_TRUE(model.count(*got)) << "popped inactive "
                                               << *got;
                double best = 0.0;
                for (auto &[b, p] : model)
                    best = std::max(best, p);
                EXPECT_EQ(model[*got], best)
                    << "popped " << model[*got] << " best " << best;
                model.erase(*got);
                prio[*got] = 0.0;
            }
            ASSERT_EQ(s.activeCount(), model.size());
        }
        while (auto b = s.next()) {
            ASSERT_TRUE(model.count(*b));
            model.erase(*b);
        }
        EXPECT_TRUE(model.empty()) << "drain lost active blocks";
        EXPECT_TRUE(s.empty());
    }
}

TEST(Random, CoversAllActiveBlocks)
{
    RandomScheduler s(8, /*seed=*/5);
    for (BlockId b = 0; b < 8; b++)
        s.activate(b, 1.0);
    std::set<BlockId> seen;
    while (auto b = s.next())
        seen.insert(*b);
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, DeterministicPerSeed)
{
    RandomScheduler a(16, 7), b(16, 7);
    for (BlockId i = 0; i < 16; i++) {
        a.activate(i, 1.0);
        b.activate(i, 1.0);
    }
    for (int i = 0; i < 16; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, ActivationIdempotent)
{
    RandomScheduler s(4, 1);
    s.activate(2, 1.0);
    s.activate(2, 1.0);
    EXPECT_EQ(s.activeCount(), 1u);
}

TEST(Factory, BuildsTheRequestedKind)
{
    EXPECT_EQ(makeScheduler(Schedule::Cyclic, 4, 1)->kind(),
              Schedule::Cyclic);
    EXPECT_EQ(makeScheduler(Schedule::Priority, 4, 1)->kind(),
              Schedule::Priority);
    EXPECT_EQ(makeScheduler(Schedule::Random, 4, 1)->kind(),
              Schedule::Random);
}

TEST(Factory, NamesRoundTrip)
{
    EXPECT_STREQ(to_string(Schedule::Cyclic), "cyclic");
    EXPECT_STREQ(to_string(Schedule::Priority), "priority");
    EXPECT_STREQ(to_string(Schedule::Random), "random");
    // The retired OBIM worklist's name is no longer a schedule.
    EXPECT_EQ(parseSchedule("obim"), std::nullopt);
    EXPECT_STREQ(to_string(ExecMode::Async), "async");
    EXPECT_STREQ(to_string(ExecMode::Bsp), "bsp");
}

} // namespace
} // namespace graphabcd
