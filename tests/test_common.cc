/**
 * @file
 * Unit tests for the common substrate: logging, PRNGs, math helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace procrustes {
namespace {

TEST(MathUtils, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 16), 0);
    EXPECT_EQ(ceilDiv(1, 16), 1);
    EXPECT_EQ(ceilDiv(16, 16), 1);
    EXPECT_EQ(ceilDiv(17, 16), 2);
    EXPECT_EQ(ceilDiv(256, 16), 16);
}

TEST(MathUtils, RoundUp)
{
    EXPECT_EQ(roundUp(0, 8), 0);
    EXPECT_EQ(roundUp(1, 8), 8);
    EXPECT_EQ(roundUp(8, 8), 8);
    EXPECT_EQ(roundUp(9, 8), 16);
}

TEST(MathUtils, MeanAndStddev)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_NEAR(stddev(xs), std::sqrt(1.25), 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
}

TEST(MathUtils, ExactQuantile)
{
    std::vector<double> xs;
    for (int i = 0; i < 101; ++i)
        xs.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 1.0), 100.0);
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 0.5), 50.0);
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 0.9), 90.0);
}

TEST(Logging, AssertFiresOnViolation)
{
    EXPECT_DEATH(PROCRUSTES_ASSERT(false, "boom"), "assertion failed");
}

TEST(Logging, AssertPassesOnTrue)
{
    PROCRUSTES_ASSERT(true, "never");
    SUCCEED();
}

TEST(Xorshift32, MatchesReferenceRecurrence)
{
    // One step of Marsaglia's 13/17/5 recurrence computed by hand.
    uint32_t x = 2463534242u;
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    Xorshift32 gen(2463534242u);
    EXPECT_EQ(gen.next(), x);
}

TEST(Xorshift32, ZeroSeedRemapped)
{
    Xorshift32 gen(0);
    EXPECT_NE(gen.state(), 0u);
    EXPECT_NE(gen.next(), 0u);
}

TEST(Xorshift128Plus, Deterministic)
{
    Xorshift128Plus a(123);
    Xorshift128Plus b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Xorshift128Plus, DifferentSeedsDiverge)
{
    Xorshift128Plus a(1);
    Xorshift128Plus b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Xorshift128Plus, DoubleInUnitInterval)
{
    Xorshift128Plus gen(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = gen.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Xorshift128Plus, BoundedWithinRange)
{
    Xorshift128Plus gen(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t v = gen.nextBounded(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);   // all residues hit
}

TEST(Xorshift128Plus, GaussianMoments)
{
    Xorshift128Plus gen(11);
    const int n = 200000;
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = gen.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Splitmix64, AvalanchesAndIsDeterministic)
{
    EXPECT_EQ(splitmix64(42), splitmix64(42));
    EXPECT_NE(splitmix64(42), splitmix64(43));
    // Nearby inputs should differ in roughly half the bits.
    const uint64_t d = splitmix64(100) ^ splitmix64(101);
    const int popcnt = __builtin_popcountll(d);
    EXPECT_GT(popcnt, 16);
    EXPECT_LT(popcnt, 48);
}

TEST(StatelessUniform, PureFunctionOfInputs)
{
    EXPECT_EQ(statelessUniform32(1, 2, 0), statelessUniform32(1, 2, 0));
    EXPECT_NE(statelessUniform32(1, 2, 0), statelessUniform32(1, 3, 0));
    EXPECT_NE(statelessUniform32(1, 2, 0), statelessUniform32(1, 2, 1));
    EXPECT_NE(statelessUniform32(1, 2, 0), statelessUniform32(2, 2, 0));
}

TEST(StatelessGaussianSum3, BoundedSupport)
{
    // Sum of three centred int32 uniforms lies in (-3*2^31, 3*2^31).
    const int64_t bound = int64_t{3} << 31;
    for (uint64_t i = 0; i < 10000; ++i) {
        const int64_t s = statelessGaussianSum3(99, i);
        EXPECT_GT(s, -bound);
        EXPECT_LT(s, bound);
    }
}

TEST(ThreadCount, ParsesWholeDecimalInRange)
{
    EXPECT_EQ(parseThreadCount("1"), 1);
    EXPECT_EQ(parseThreadCount("4"), 4);
    EXPECT_EQ(parseThreadCount("0016"), 16);
    EXPECT_EQ(parseThreadCount("1024"), kMaxPoolThreads);
}

TEST(ThreadCountDeathTest, RejectsMalformedOrOutOfRange)
{
    // Each value once built a pool of the wrong size: atoi read "4abc"
    // as 4, "0" and "abc" fell back to a default with a warning, and
    // "99999" started 99998 threads until thread creation threw.
    // Parse only: no pool is built here.
    for (const char *bad : {"", "0", "-2", "+4", "abc", "4abc", " 4", "4 ",
                            "1025", "99999", "99999999999999999999"}) {
        EXPECT_DEATH(parseThreadCount(bad),
                     "PROCRUSTES_NUM_THREADS must be an integer")
            << "'" << bad << "'";
    }
}

} // namespace
} // namespace procrustes
