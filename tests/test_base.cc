/**
 * @file
 * Unit tests for the base utilities: RNG, saturating counters, LRU,
 * statistics, tables, env helpers.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "base/env.hh"
#include "base/lru.hh"
#include "base/random.hh"
#include "base/sat_counter.hh"
#include "base/stats.hh"
#include "base/table.hh"

namespace mdp
{
namespace
{

// --------------------------------------------------------------------
// Pcg32
// --------------------------------------------------------------------

TEST(Pcg32, DeterministicForSameSeed)
{
    Pcg32 a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int differs = 0;
    for (int i = 0; i < 100; ++i)
        differs += a.next() != b.next();
    EXPECT_GT(differs, 90);
}

TEST(Pcg32, DifferentStreamsDiffer)
{
    Pcg32 a(7, 100), b(7, 200);
    int differs = 0;
    for (int i = 0; i < 100; ++i)
        differs += a.next() != b.next();
    EXPECT_GT(differs, 90);
}

TEST(Pcg32, ReseedRestoresSequence)
{
    Pcg32 a(5);
    std::vector<uint32_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a.next());
    a.reseed(5);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), first[i]);
}

TEST(Pcg32, BelowStaysInRange)
{
    Pcg32 rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Pcg32, BelowOneIsZero)
{
    Pcg32 rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Pcg32, BelowCoversAllValues)
{
    Pcg32 rng(11);
    std::set<uint32_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Pcg32, RangeInclusive)
{
    Pcg32 rng(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        uint32_t v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Pcg32, UniformInUnitInterval)
{
    Pcg32 rng(17);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Pcg32, ChanceRespectsProbability)
{
    Pcg32 rng(23);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Pcg32, ChanceZeroAndOne)
{
    Pcg32 rng(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Pcg32, GeometricMeanApprox)
{
    Pcg32 rng(31);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.geometric(10.0);
    EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(Pcg32, GeometricMinimumIsOne)
{
    Pcg32 rng(37);
    for (int i = 0; i < 100; ++i)
        EXPECT_GE(rng.geometric(0.5), 1u);
}

TEST(Mix64, DeterministicAndSpread)
{
    EXPECT_EQ(mix64(1), mix64(1));
    EXPECT_NE(mix64(1), mix64(2));
    // Low bits should vary even for sequential inputs.
    std::set<uint64_t> low;
    for (uint64_t i = 0; i < 64; ++i)
        low.insert(mix64(i) & 0xff);
    EXPECT_GT(low.size(), 40u);
}

// --------------------------------------------------------------------
// SatCounter
// --------------------------------------------------------------------

TEST(SatCounter, DefaultsToThreeBitZero)
{
    SatCounter c;
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(c.max(), 7u);
}

TEST(SatCounter, SaturatesAtMax)
{
    SatCounter c(3);
    for (int i = 0; i < 20; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 7u);
}

TEST(SatCounter, SaturatesAtZero)
{
    SatCounter c(3, 2);
    for (int i = 0; i < 20; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, InitialClampedToMax)
{
    SatCounter c(2, 100);
    EXPECT_EQ(c.value(), 3u);
}

TEST(SatCounter, ThresholdPredicate)
{
    SatCounter c(3, 3);
    EXPECT_TRUE(c.atLeast(3));
    c.decrement();
    EXPECT_FALSE(c.atLeast(3));
}

TEST(SatCounter, SaturateAndReset)
{
    SatCounter c(3);
    c.saturate();
    EXPECT_EQ(c.value(), 7u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

class SatCounterWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SatCounterWidth, MaxMatchesWidth)
{
    unsigned bits = GetParam();
    SatCounter c(bits);
    EXPECT_EQ(c.max(), (1u << bits) - 1);
    for (unsigned i = 0; i <= c.max() + 4; ++i)
        c.increment();
    EXPECT_EQ(c.value(), c.max());
}

INSTANTIATE_TEST_SUITE_P(Widths, SatCounterWidth,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

// --------------------------------------------------------------------
// LruState
// --------------------------------------------------------------------

TEST(LruState, UntouchedEntriesWinVictim)
{
    LruState lru(4);
    lru.touch(0);
    lru.touch(1);
    size_t v = lru.victim();
    EXPECT_TRUE(v == 2 || v == 3);
}

TEST(LruState, OldestTouchedIsVictim)
{
    LruState lru(3);
    lru.touch(0);
    lru.touch(1);
    lru.touch(2);
    EXPECT_EQ(lru.victim(), 0u);
    lru.touch(0);
    EXPECT_EQ(lru.victim(), 1u);
}

// --------------------------------------------------------------------
// Stats
// --------------------------------------------------------------------

TEST(Stats, HistogramBucketsAndOverflow)
{
    Histogram h(4);
    h.sample(0);
    h.sample(1, 2);
    h.sample(100);   // overflow bucket
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.samples(), 4u);
}

TEST(Stats, HistogramCdf)
{
    Histogram h(4);
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    EXPECT_DOUBLE_EQ(h.cdfAt(1), 0.5);
    EXPECT_DOUBLE_EQ(h.cdfAt(3), 1.0);
}

TEST(Stats, StatGroupSetAddGet)
{
    StatGroup g;
    g.set("ipc", 2.5);
    g.add("cycles", 100);
    g.add("cycles", 50);
    EXPECT_TRUE(g.has("ipc"));
    EXPECT_FALSE(g.has("missing"));
    EXPECT_DOUBLE_EQ(g.get("ipc"), 2.5);
    EXPECT_DOUBLE_EQ(g.get("cycles"), 150.0);
    EXPECT_DOUBLE_EQ(g.get("missing"), 0.0);
}

TEST(Stats, StatGroupPreservesInsertionOrder)
{
    StatGroup g;
    g.set("zeta", 1);
    g.set("alpha", 2);
    ASSERT_EQ(g.all().size(), 2u);
    EXPECT_EQ(g.all()[0].first, "zeta");
    EXPECT_EQ(g.all()[1].first, "alpha");
}

TEST(Stats, StatGroupDump)
{
    StatGroup g;
    g.set("x", 1.0);
    std::ostringstream os;
    g.dump(os, "pfx.");
    EXPECT_NE(os.str().find("pfx.x"), std::string::npos);
}

// --------------------------------------------------------------------
// TextTable
// --------------------------------------------------------------------

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.beginRow();
    t.cell("a");
    t.integer(123);
    t.beginRow();
    t.cell("longer");
    t.num(1.5, 1);
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("123"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, CsvEscapesCommas)
{
    TextTable t({"a"});
    t.row({"x,y"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

TEST(TextTable, NumRows)
{
    TextTable t;
    EXPECT_EQ(t.numRows(), 0u);
    t.row({"a"});
    EXPECT_EQ(t.numRows(), 1u);
}

TEST(Format, Count)
{
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(2500000), "2.50 M");
    EXPECT_EQ(formatCount(1234567890ull), "1.23 B");
    EXPECT_EQ(formatCount(45000), "45.0 K");
}

TEST(Format, Percent)
{
    EXPECT_EQ(formatPercent(0.1234), "12.34%");
    EXPECT_EQ(formatPercent(0.5, 0), "50%");
}

TEST(Format, Double)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
}

// --------------------------------------------------------------------
// Env helpers
// --------------------------------------------------------------------

TEST(Env, DefaultsWhenUnset)
{
    unsetenv("MDP_TEST_VAR");
    EXPECT_DOUBLE_EQ(envDouble("MDP_TEST_VAR", 2.5), 2.5);
    EXPECT_EQ(envLong("MDP_TEST_VAR", 7), 7);
    EXPECT_EQ(envString("MDP_TEST_VAR", "d"), "d");
}

TEST(Env, ParsesValues)
{
    setenv("MDP_TEST_VAR", "3.5", 1);
    EXPECT_DOUBLE_EQ(envDouble("MDP_TEST_VAR", 1.0), 3.5);
    setenv("MDP_TEST_VAR", "42", 1);
    EXPECT_EQ(envLong("MDP_TEST_VAR", 1), 42);
    unsetenv("MDP_TEST_VAR");
}

TEST(Env, MalformedFallsBack)
{
    setenv("MDP_TEST_VAR", "abc", 1);
    EXPECT_DOUBLE_EQ(envDouble("MDP_TEST_VAR", 1.5), 1.5);
    EXPECT_EQ(envLong("MDP_TEST_VAR", 9), 9);
    unsetenv("MDP_TEST_VAR");
}

TEST(Env, TraceScalePositive)
{
    unsetenv("MDP_SCALE");
    EXPECT_DOUBLE_EQ(traceScale(), 1.0);
}

} // namespace
} // namespace mdp
