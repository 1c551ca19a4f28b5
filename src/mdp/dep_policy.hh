/**
 * @file
 * Pluggable data-dependence speculation policies.
 *
 * The paper evaluates seven policies (NEVER, ALWAYS, WAIT, PSYNC,
 * SYNC, ESYNC and the section-6 VSYNC); its mechanism also has
 * well-known descendants -- store-set prediction, per-load wait
 * counters, value-speculation hybrids -- raced against the original
 * in the A8 ablation.  Every config names its policy by registry key
 * (lowercase: "never", "always", "wait", "psync", "sync", "esync",
 * "vsync", "storeset", "counter", "vassist").  To keep the timing
 * models policy-agnostic, every per-load speculation decision is made
 * by a DependencePolicy object obtained from a string-keyed registry:
 * the models present each ready load through a LoadIssueContext and
 * apply the returned LoadDecision mechanically, with no per-policy
 * switch of their own.
 *
 * A policy is model-agnostic by construction: the same object drives
 * both the Multiscalar and the superscalar OoO model.  Model-specific
 * capabilities (task-PC path context, the value-prediction datapath)
 * are advertised through the context, and model-specific synchronizer
 * sizing (slots per entry, per-stage copies) is applied inside
 * makeSyncUnit() based on the ModelKind.
 */

#ifndef MDP_MDP_DEP_POLICY_HH
#define MDP_MDP_DEP_POLICY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mdp/sync_unit.hh"
#include "trace/microop.hh"

namespace mdp
{

/** Which timing model is consulting the policy. */
enum class ModelKind
{
    Multiscalar,  ///< task-based; has task-PC context and value pred
    Superscalar,  ///< continuous window; neither capability
};

/**
 * The model-side view of one load that is ready to access memory.
 * Implemented by each timing model; queries are lazy so a policy that
 * never looks at (say) the store frontier costs nothing.
 */
class LoadIssueContext
{
  public:
    virtual ~LoadIssueContext() = default;

    virtual Addr loadPc() const = 0;
    virtual Addr loadAddr() const = 0;

    /** Instance number: the task id in Multiscalar, the per-PC dynamic
     *  instance in the superscalar model (paper footnote 2). */
    virtual uint64_t instance() const = 0;

    /** Dynamic identifier used for synchronizer wakeup/squash. */
    virtual LoadId loadId() const = 0;

    /** The load already completed a synchronization (signal, frontier
     *  or eviction release) and must not re-consult the predictor. */
    virtual bool syncSatisfied() const = 0;

    /** Every store older than this load has executed.  May advance the
     *  model's store-frontier scan. */
    virtual bool allStoresDone() = 0;

    /**
     * The oracle-known producing store, if it is still relevant for
     * speculation under this model's window semantics (in flight or
     * not yet fetched; cross-task in Multiscalar), else kNoSeq.
     */
    virtual SeqNum windowProducer() const = 0;

    /** Has the given store executed? */
    virtual bool storeIssued(SeqNum store) const = 0;

    /** Task-PC oracle for path-based prediction; null when the model
     *  has no task context (superscalar). */
    virtual const TaskPcSource *taskPcs() const = 0;

    /** Does the model have a value-prediction datapath? */
    virtual bool canValuePredict() const = 0;
};

/** What the model must do with the load. */
enum class LoadAction
{
    Issue,                ///< access memory now
    IssueValuePredicted,  ///< issue consuming a predicted value
    BlockFrontier,        ///< wait until all prior stores execute
    BlockProducer,        ///< wait for one specific store (ideal sync)
    BlockSync,            ///< park on the synchronizer until woken
};

/** Outcome of consulting the policy for one ready load. */
struct LoadDecision
{
    LoadAction action = LoadAction::Issue;

    /** The store to wait for (BlockProducer only). */
    SeqNum producer = kNoSeq;

    /** True when the synchronizer was consulted this check; the
     *  Multiscalar model derives its Table-8 classification from the
     *  accompanying LoadCheck. */
    bool consultedSync = false;
    LoadCheck check;
};

/** A detected dependence violation, as the policy sees it. */
struct ViolationView
{
    Addr loadPc = 0;
    /** The load had issued with a predicted value (value hybrid). */
    bool loadValuePredicted = false;
    /** The store wrote the same value as its previous instance. */
    bool valueRepeats = false;
};

/**
 * One speculation policy: decides, per ready load, whether to issue,
 * value-predict, or block -- and builds the synchronizer it needs.
 * Instances are per-simulation-run and may carry state (e.g. the
 * value-prediction confidence pool); they are not thread-safe and must
 * not be shared across concurrent runs.
 */
class DependencePolicy
{
  public:
    virtual ~DependencePolicy() = default;

    /** Registry key (lowercase, stable). */
    virtual const std::string &name() const = 0;

    /** Does this policy need a DepSynchronizer built? */
    virtual bool needsSynchronizer() const { return false; }

    /**
     * Build the synchronization unit for one model instance, applying
     * the policy's predictor choice and the model's structural sizing
     * (per-stage slots/copies in Multiscalar).  Only called when
     * needsSynchronizer() is true.
     */
    virtual std::unique_ptr<DepSynchronizer>
    makeSyncUnit(const SyncUnitConfig &cfg, SyncOrganization org,
                 ModelKind model, unsigned numStages) const;

    /**
     * Decide what to do with a ready load.  @p sync is the unit built
     * by makeSyncUnit() (null for policies without one).
     */
    virtual LoadDecision loadIssueCheck(LoadIssueContext &ctx,
                                        DepSynchronizer *sync) = 0;

    /**
     * A synchronization signal released a waiting load (Multiscalar
     * store-wakeup path).  Value hybrids train confidence here: had
     * the value repeated, the wait was avoidable (section 6).
     */
    virtual void syncSignalObserved(Addr load_pc, bool value_repeats)
    {
        (void)load_pc;
        (void)value_repeats;
    }

    /**
     * A violation on this load was detected; @return true when the
     * policy absorbs it benignly (correct value prediction -- no
     * squash).  Value hybrids also train confidence here.
     */
    virtual bool absorbViolation(const ViolationView &v)
    {
        (void)v;
        return false;
    }
};

/** One registry row. */
struct PolicyInfo
{
    std::string name;     ///< lowercase key
    std::string summary;  ///< one-line description for --list-policies
    std::function<std::unique_ptr<DependencePolicy>()> make;
};

/**
 * The policy registry, in deterministic (sorted-by-name) order: the
 * seven paper policies plus the descendant zoo (storeset, counter,
 * vassist).  CI enumerates this via `mdp_sim --list-policies` so a
 * newly registered policy is exercised automatically.
 */
const std::vector<PolicyInfo> &dependencePolicies();

/** Sorted registry keys. */
std::vector<std::string> dependencePolicyNames();

/** Is @p name a registered policy (case-insensitive)? */
bool knownDependencePolicy(const std::string &name);

/** Build a policy by name (case-insensitive); fatal on unknown. */
std::unique_ptr<DependencePolicy>
makeDependencePolicy(const std::string &name);

/** Display form of a registry key (uppercase, paper style). */
std::string policyDisplayName(const std::string &key);

} // namespace mdp

#endif // MDP_MDP_DEP_POLICY_HH
