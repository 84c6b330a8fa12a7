/**
 * @file
 * Tests of the runtime substrate: the SPSC ring.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "runtime/spsc_ring.hh"

namespace graphabcd {
namespace {

TEST(SpscRing, FifoAndCapacity)
{
    SpscRing<int> ring(3);
    EXPECT_TRUE(ring.tryPush(1));
    EXPECT_TRUE(ring.tryPush(2));
    EXPECT_TRUE(ring.tryPush(3));
    EXPECT_FALSE(ring.tryPush(4));   // full
    EXPECT_EQ(ring.tryPop(), 1);
    EXPECT_TRUE(ring.tryPush(4));
    EXPECT_EQ(ring.tryPop(), 2);
    EXPECT_EQ(ring.tryPop(), 3);
    EXPECT_EQ(ring.tryPop(), 4);
    EXPECT_EQ(ring.tryPop(), std::nullopt);
}

TEST(SpscRing, BulkPushPopRespectsCapacity)
{
    SpscRing<int> ring(4);
    const int src[6] = {10, 11, 12, 13, 14, 15};
    int dst[6] = {};

    // pushN truncates at the capacity (one slot stays empty internally,
    // but all `capacity` usable slots must be writable).
    EXPECT_EQ(ring.pushN(src, 6), 4u);
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.pushN(src, 1), 0u);   // full

    EXPECT_EQ(ring.popN(dst, 6), 4u);
    for (int i = 0; i < 4; i++)
        EXPECT_EQ(dst[i], src[i]);
    EXPECT_EQ(ring.popN(dst, 1), 0u);   // empty
}

TEST(SpscRing, BulkWrapAroundKeepsFifoOrder)
{
    SpscRing<int> ring(5);
    int dst[5] = {};

    // Advance head/tail so subsequent bulk ops straddle the physical
    // end of the 6-slot internal buffer.
    for (int i = 0; i < 4; i++)
        EXPECT_TRUE(ring.tryPush(i));
    EXPECT_EQ(ring.popN(dst, 4), 4u);

    const int src[5] = {100, 101, 102, 103, 104};
    EXPECT_EQ(ring.pushN(src, 5), 5u);   // wraps past the buffer end
    EXPECT_EQ(ring.size(), 5u);
    EXPECT_EQ(ring.popN(dst, 5), 5u);    // wraps on the pop side too
    for (int i = 0; i < 5; i++)
        EXPECT_EQ(dst[i], src[i]);
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, BulkAndScalarOpsInterleave)
{
    SpscRing<int> ring(8);
    const int src[3] = {1, 2, 3};
    int dst[8] = {};

    EXPECT_EQ(ring.pushN(src, 3), 3u);
    EXPECT_TRUE(ring.tryPush(4));
    EXPECT_EQ(ring.tryPop(), 1);
    EXPECT_EQ(ring.popN(dst, 8), 3u);
    EXPECT_EQ(dst[0], 2);
    EXPECT_EQ(dst[1], 3);
    EXPECT_EQ(dst[2], 4);
}

TEST(SpscRing, BulkProducerConsumerStress)
{
    SpscRing<int> ring(64);
    constexpr int items = 200000;
    long long sum = 0;

    std::thread producer([&ring] {
        int batch[17];
        int next = 0;
        while (next < items) {
            int n = 0;
            while (n < 17 && next + n < items) {
                batch[n] = next + n;
                n++;
            }
            std::size_t pushed = 0;
            while (pushed < static_cast<std::size_t>(n)) {
                const std::size_t k =
                    ring.pushN(batch + pushed, n - pushed);
                if (k == 0)
                    std::this_thread::yield();
                pushed += k;
            }
            next += n;
        }
    });
    int batch[23];
    int received = 0;
    while (received < items) {
        const std::size_t k = ring.popN(batch, 23);
        if (k == 0) {
            std::this_thread::yield();
            continue;
        }
        for (std::size_t i = 0; i < k; i++) {
            EXPECT_EQ(batch[i], received + static_cast<int>(i));
            sum += batch[i];
        }
        received += static_cast<int>(k);
    }
    producer.join();
    EXPECT_EQ(sum, static_cast<long long>(items) * (items - 1) / 2);
}

TEST(SpscRing, ProducerConsumerStress)
{
    SpscRing<int> ring(16);
    constexpr int items = 100000;
    long long sum = 0;

    std::thread producer([&ring] {
        for (int i = 0; i < items;) {
            if (ring.tryPush(i))
                i++;
            else
                std::this_thread::yield();
        }
    });
    int received = 0;
    while (received < items) {
        if (auto v = ring.tryPop()) {
            sum += *v;
            received++;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_EQ(sum, static_cast<long long>(items) * (items - 1) / 2);
}

} // namespace
} // namespace graphabcd
