/**
 * @file
 * The DependencePolicy registry contract: deterministic enumeration,
 * case-insensitive lookup, name round-trips, unknown-name rejection on
 * every entry path (makeDependencePolicy, the serve protocol), and the
 * default policy key of both timing models' configs.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/sim_stats.hh"
#include "mdp/dep_policy.hh"
#include "ooo/ooo_model.hh"
#include "serve/protocol.hh"

using namespace mdp;

TEST(PolicyRegistry, EnumeratesSortedUniqueNames)
{
    const std::vector<std::string> names = dependencePolicyNames();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()),
              names.end());

    // The seven paper policies plus the descendant zoo.  This list is
    // what `mdp_sim --list-policies` prints and what CI sweeps.
    const std::vector<std::string> expected = {
        "always", "counter", "esync",   "never", "psync",
        "storeset", "sync",  "vassist", "vsync", "wait",
    };
    EXPECT_EQ(names, expected);
}

TEST(PolicyRegistry, EveryEntryRoundTrips)
{
    for (const PolicyInfo &info : dependencePolicies()) {
        ASSERT_FALSE(info.name.empty());
        EXPECT_FALSE(info.summary.empty()) << info.name;
        std::unique_ptr<DependencePolicy> p = info.make();
        ASSERT_NE(p, nullptr) << info.name;
        EXPECT_EQ(p->name(), info.name);

        std::unique_ptr<DependencePolicy> q =
            makeDependencePolicy(info.name);
        ASSERT_NE(q, nullptr) << info.name;
        EXPECT_EQ(q->name(), info.name);
    }
}

TEST(PolicyRegistry, LookupIsCaseInsensitive)
{
    EXPECT_TRUE(knownDependencePolicy("storeset"));
    EXPECT_TRUE(knownDependencePolicy("STORESET"));
    EXPECT_TRUE(knownDependencePolicy("StoreSet"));
    EXPECT_FALSE(knownDependencePolicy("bogus"));
    EXPECT_FALSE(knownDependencePolicy(""));
    EXPECT_EQ(makeDependencePolicy("ESYNC")->name(), "esync");
}

TEST(PolicyRegistryDeathTest, MakeDependencePolicyRejectsUnknownNames)
{
    EXPECT_EXIT(makeDependencePolicy("bogus"),
                testing::ExitedWithCode(1),
                "unknown dependence policy 'bogus'");
}

TEST(ServeProtocolPolicies, AcceptsEveryRegisteredPolicy)
{
    for (const std::string &name : dependencePolicyNames()) {
        serve::Message m = serve::parseMessage(
            "{\"id\":\"a\",\"workload\":\"espresso\",\"policy\":\"" +
            name + "\"}");
        EXPECT_EQ(m.kind, serve::MsgKind::Submit) << name << ": "
                                                  << m.error;
        EXPECT_EQ(m.req.policy, name);
    }
}

TEST(ServeProtocolPolicies, RejectsUnregisteredPolicy)
{
    serve::Message m = serve::parseMessage(
        "{\"id\":\"a\",\"workload\":\"espresso\",\"policy\":\"bogus\"}");
    EXPECT_EQ(m.kind, serve::MsgKind::Invalid);
    EXPECT_NE(m.error.find("policy"), std::string::npos) << m.error;
}

TEST(PolicyRegistry, DefaultConfigsRunAlways)
{
    // A config that never names a policy gets its default from the
    // policyName field: blind speculation, on both models.
    WorkloadContext ctx("espresso", 0.02);

    MultiscalarConfig ms_always;
    ms_always.policyName = "always";
    EXPECT_EQ(multiscalarStats(runMultiscalar(ctx, MultiscalarConfig{}))
                  .all(),
              multiscalarStats(runMultiscalar(ctx, ms_always)).all());

    OooConfig ooo_always;
    ooo_always.policyName = "always";
    EXPECT_EQ(oooStats(runOoo(ctx, OooConfig{})).all(),
              oooStats(runOoo(ctx, ooo_always)).all());
}
