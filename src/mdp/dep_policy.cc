#include "mdp/dep_policy.hh"

#include <algorithm>
#include <cctype>

#include "base/logging.hh"
#include "mdp/load_wait.hh"
#include "mdp/store_set.hh"
#include "mdp/value_pred.hh"

namespace mdp
{

std::unique_ptr<DepSynchronizer>
DependencePolicy::makeSyncUnit(const SyncUnitConfig &cfg,
                               SyncOrganization org, ModelKind model,
                               unsigned numStages) const
{
    (void)cfg;
    (void)org;
    (void)model;
    (void)numStages;
    mdp_fatal("policy '%s' has no synchronization unit", name().c_str());
}

namespace
{

std::string
lowered(const std::string &s)
{
    std::string low = s;
    std::transform(low.begin(), low.end(), low.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return low;
}

// ---------------------------------------------------------------------
// Synchronizer-free policies (sections 2 and 3).
// ---------------------------------------------------------------------

class AlwaysPolicy final : public DependencePolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "always";
        return n;
    }

    LoadDecision
    loadIssueCheck(LoadIssueContext &, DepSynchronizer *) override
    {
        return {};
    }
};

class NeverPolicy final : public DependencePolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "never";
        return n;
    }

    LoadDecision
    loadIssueCheck(LoadIssueContext &ctx, DepSynchronizer *) override
    {
        LoadDecision d;
        if (!ctx.allStoresDone())
            d.action = LoadAction::BlockFrontier;
        return d;
    }
};

class WaitPolicy final : public DependencePolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "wait";
        return n;
    }

    LoadDecision
    loadIssueCheck(LoadIssueContext &ctx, DepSynchronizer *) override
    {
        // Perfect prediction, no synchronization: a load with a true
        // dependence in the window waits for every older store.
        LoadDecision d;
        if (ctx.windowProducer() != kNoSeq && !ctx.allStoresDone())
            d.action = LoadAction::BlockFrontier;
        return d;
    }
};

class PerfectSyncPolicy final : public DependencePolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "psync";
        return n;
    }

    LoadDecision
    loadIssueCheck(LoadIssueContext &ctx, DepSynchronizer *) override
    {
        LoadDecision d;
        SeqNum p = ctx.windowProducer();
        if (p != kNoSeq && !ctx.storeIssued(p)) {
            d.action = LoadAction::BlockProducer;
            d.producer = p;
        }
        return d;
    }
};

// ---------------------------------------------------------------------
// Predictor-backed policies.
// ---------------------------------------------------------------------

/**
 * Common decision logic of every policy that parks loads on a
 * DepSynchronizer, including the optional value-prediction bypass
 * (section 6): check the predictor once per load unless an earlier
 * synchronization already satisfied it.
 */
class SyncFamilyPolicy : public DependencePolicy
{
  public:
    bool needsSynchronizer() const override { return true; }

    std::unique_ptr<DepSynchronizer>
    makeSyncUnit(const SyncUnitConfig &cfg, SyncOrganization org,
                 ModelKind model, unsigned numStages) const override
    {
        SyncUnitConfig sc = cfg;
        if (model == ModelKind::Multiscalar) {
            sc.predictor = msPredictor(sc.predictor);
            sc.slotsPerEntry = std::max(sc.slotsPerEntry, numStages);
            sc.numCopies = numStages;
        } else if (sc.predictor == PredictorKind::PathCounter) {
            // No task-PC context in a superscalar core; the path
            // predictor degenerates to the counter.
            sc.predictor = PredictorKind::Counter;
        }
        return makeSynchronizer(sc, org);
    }

    LoadDecision
    loadIssueCheck(LoadIssueContext &ctx, DepSynchronizer *sync) override
    {
        LoadDecision d;
        if (ctx.syncSatisfied())
            return d;
        if (valueAssisted() && ctx.canValuePredict() &&
            vpred.confident(ctx.loadPc())) {
            // Hybrid: consume the predicted value instead of
            // synchronizing; validated when the producer executes.
            d.action = LoadAction::IssueValuePredicted;
            return d;
        }
        d.consultedSync = true;
        d.check = sync->loadReady(ctx.loadPc(), ctx.loadAddr(),
                                  ctx.instance(), ctx.loadId(),
                                  ctx.taskPcs());
        if (d.check.wait)
            d.action = LoadAction::BlockSync;
        return d;
    }

    void
    syncSignalObserved(Addr load_pc, bool value_repeats) override
    {
        // Every completed synchronization is a value-locality
        // observation: had the value repeated, the wait was avoidable.
        if (valueAssisted())
            vpred.train(load_pc, value_repeats);
    }

    bool
    absorbViolation(const ViolationView &v) override
    {
        if (!valueAssisted())
            return false;
        vpred.train(v.loadPc, v.valueRepeats);
        return v.loadValuePredicted && v.valueRepeats;
    }

  protected:
    /** Does this policy use the value-prediction bypass? */
    virtual bool valueAssisted() const { return false; }

    /** The MDPT predictor kind this policy requires in the
     *  Multiscalar model, given the configured kind. */
    virtual PredictorKind
    msPredictor(PredictorKind incoming) const
    {
        return incoming == PredictorKind::AlwaysSync
            ? PredictorKind::AlwaysSync
            : PredictorKind::Counter;
    }

    ValuePredictor vpred;
};

class SyncPolicy final : public SyncFamilyPolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "sync";
        return n;
    }
};

class ESyncPolicy final : public SyncFamilyPolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "esync";
        return n;
    }

  protected:
    PredictorKind
    msPredictor(PredictorKind) const override
    {
        return PredictorKind::PathCounter;
    }
};

class VSyncPolicy final : public SyncFamilyPolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "vsync";
        return n;
    }

  protected:
    bool valueAssisted() const override { return true; }

    PredictorKind
    msPredictor(PredictorKind) const override
    {
        return PredictorKind::PathCounter;
    }
};

class VAssistPolicy final : public SyncFamilyPolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "vassist";
        return n;
    }

  protected:
    bool valueAssisted() const override { return true; }
};

class StoreSetPolicy final : public SyncFamilyPolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "storeset";
        return n;
    }

    std::unique_ptr<DepSynchronizer>
    makeSyncUnit(const SyncUnitConfig &cfg, SyncOrganization,
                 ModelKind, unsigned) const override
    {
        // The SSIT/LFST pair replaces the MDPT/MDST wholesale; the
        // organization and per-stage sizing knobs do not apply.
        return std::make_unique<StoreSetUnit>(cfg);
    }
};

class CounterPolicy final : public SyncFamilyPolicy
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "counter";
        return n;
    }

    std::unique_ptr<DepSynchronizer>
    makeSyncUnit(const SyncUnitConfig &cfg, SyncOrganization,
                 ModelKind, unsigned) const override
    {
        return std::make_unique<LoadWaitUnit>(cfg);
    }
};

template <typename P>
PolicyInfo
row(const char *summary)
{
    PolicyInfo info;
    info.make = [] { return std::make_unique<P>(); };
    info.name = info.make()->name();
    info.summary = summary;
    return info;
}

} // namespace

const std::vector<PolicyInfo> &
dependencePolicies()
{
    // Sorted by name; CI and --list-policies rely on the order being
    // deterministic.
    static const std::vector<PolicyInfo> registry = {
        row<AlwaysPolicy>("blind speculation: every load issues "
                          "as early as possible"),
        row<CounterPolicy>("per-load saturating-counter wait table "
                           "(21264-style load wait)"),
        row<ESyncPolicy>("MDPT/MDST with the path-enhanced predictor "
                         "(paper ESYNC)"),
        row<NeverPolicy>("no speculation: loads wait for all prior "
                         "stores"),
        row<PerfectSyncPolicy>("oracle synchronization with the exact "
                               "producing store"),
        row<StoreSetPolicy>("store-set prediction (SSIT/LFST with "
                            "cyclic clearing)"),
        row<SyncPolicy>("MDPT/MDST with the counter predictor "
                        "(paper SYNC)"),
        row<VAssistPolicy>("counter-predicted sync with the "
                           "value-prediction bypass"),
        row<VSyncPolicy>("path-predicted sync with the "
                         "value-prediction bypass (paper VSYNC)"),
        row<WaitPolicy>("oracle-predicted dependent loads wait for "
                        "all prior stores"),
    };
    return registry;
}

std::vector<std::string>
dependencePolicyNames()
{
    std::vector<std::string> names;
    names.reserve(dependencePolicies().size());
    for (const PolicyInfo &info : dependencePolicies())
        names.push_back(info.name);
    return names;
}

bool
knownDependencePolicy(const std::string &name)
{
    const std::string low = lowered(name);
    for (const PolicyInfo &info : dependencePolicies())
        if (info.name == low)
            return true;
    return false;
}

std::unique_ptr<DependencePolicy>
makeDependencePolicy(const std::string &name)
{
    const std::string low = lowered(name);
    for (const PolicyInfo &info : dependencePolicies())
        if (info.name == low)
            return info.make();
    mdp_fatal("unknown dependence policy '%s' (mdp_sim --list-policies "
              "prints the registry)",
              name.c_str());
}

std::string
policyDisplayName(const std::string &key)
{
    std::string up = key;
    std::transform(up.begin(), up.end(), up.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    return up;
}

} // namespace mdp
