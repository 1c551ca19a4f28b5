/**
 * @file
 * A superscalar, continuous-window out-of-order timing model.
 *
 * The paper argues (section 6) that dependence prediction and
 * synchronization apply beyond Multiscalar; this model explores that
 * claim.  One centralized instruction window slides over the trace:
 * fetch is in order, issue is out of order, commit is in order.  Loads
 * speculate per the configured policy; violations squash from the
 * offending load (modern-OoO granularity, unlike Multiscalar's task
 * granularity).  Dynamic instances are numbered per static PC as the
 * paper's footnote 2 suggests for superscalar cores.  Blocked loads
 * park on, and are released through, the shared ParkedLoads protocol
 * (mdp/parked_loads.hh); this model supplies the store-frontier bound
 * and counts the releases.
 */

#ifndef MDP_OOO_OOO_MODEL_HH
#define MDP_OOO_OOO_MODEL_HH

#include <memory>
#include <string>
#include <vector>

#include "base/soa_lanes.hh"
#include "mdp/dep_policy.hh"
#include "mdp/parked_loads.hh"
#include "mdp/sync_unit.hh"
#include "multiscalar/arb.hh"
#include "trace/dep_oracle.hh"
#include "trace/trace.hh"

namespace mdp
{

/**
 * Parameters of the superscalar model.  The pipeline widths, units
 * and memory timing are fixed (the static constants); the window, the
 * policy and its tables are settable.
 */
struct OooConfig
{
    static constexpr unsigned fetchWidth = 4;
    static constexpr unsigned issueWidth = 4;
    static constexpr unsigned commitWidth = 4;

    static constexpr unsigned simpleIntFUs = 4;
    static constexpr unsigned complexIntFUs = 1;
    static constexpr unsigned fpFUs = 2;
    static constexpr unsigned branchFUs = 2;
    static constexpr unsigned memPorts = 2;

    /** Simple probabilistic dcache: a load hits in loadLatency cycles
     *  or, with probability missRate, misses for missPenalty. */
    static constexpr unsigned loadLatency = 2;
    static constexpr unsigned missPenalty = 13;
    static constexpr double missRate = 0.05;
    /** Refetch delay after a violation. */
    static constexpr unsigned squashPenalty = 4;

    unsigned windowSize = 64;   ///< instruction window / ROB entries

    /** Registry key of the dependence policy (mdp/dep_policy.hh),
     *  case-insensitive. */
    std::string policyName = "always";

    SyncUnitConfig sync;
    SyncOrganization organization = SyncOrganization::Combined;
    uint64_t seed = 0xacce55;
    uint64_t maxCycles = 0;
};

/** Results of one superscalar run. */
struct OooResult
{
    uint64_t cycles = 0;
    uint64_t committedOps = 0;
    uint64_t committedLoads = 0;
    uint64_t misSpeculations = 0;
    uint64_t squashedOps = 0;
    uint64_t loadsBlocked = 0;
    uint64_t frontierReleases = 0;

    /** The run hit the cycle cap: every count above is partial. */
    bool truncated = false;

    /**
     * Skip accounting: cycles the loop actually executed vs. cycles it
     * jumped over.  Invariant: cyclesSimulated + cyclesSkipped ==
     * cycles.
     */
    uint64_t cyclesSimulated = 0;
    uint64_t cyclesSkipped = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(committedOps) / cycles : 0.0;
    }
};

/**
 * One run of one trace under one configuration.
 */
class OooProcessor
{
  public:
    /** Fatal (exit 1) on a zero windowSize, which could never commit
     *  an op, instead of running to the cycle cap. */
    OooProcessor(const TraceView &trace, const DepOracle &oracle,
                 const OooConfig &config);
    ~OooProcessor();

    /**
     * Execute the whole trace -- until every op commits or the cycle
     * cap trips -- and return aggregate results.  A cycle that changes
     * nothing jumps straight to nextInterestingCycle().
     */
    OooResult run();

  private:
    // Op-state flags, stored in the OpLanes status lane above the
    // ParkedLoads bits.
    static constexpr uint16_t kIssued = 1 << ParkedLoads::kFirstModelBit;

    /** Flags that take an op out of the issue scan. */
    static constexpr uint16_t kNotIssuable = kIssued | ParkedLoads::kBlocked;

    /** LoadIssueContext over one ready load (defined in the .cc). */
    struct IssueCtx;

    /** Fatal on a source of an op in [srcChecked, @p end) that does
     *  not precede its op (a hostile trace file), before the issue
     *  scan indexes the op lanes with it; then advance srcChecked. */
    void checkSources(SeqNum end);
    bool srcReady(SeqNum src) const;
    bool srcsReady(SeqNum seq) const;
    bool tryIssueMem(SeqNum seq, unsigned &mem_ports);
    void executeLoad(SeqNum seq);
    void executeStore(SeqNum seq);
    bool allStoresDoneBefore(SeqNum seq);
    /** Advance the store frontier and return the sequence number of the
     *  first unexecuted store (UINT64_MAX when none remain).  A blocked
     *  op @c seq is releasable iff the bound is >= seq. */
    uint64_t storeFrontierBound();
    void handleViolation(SeqNum load);
    /** A parked load was released: the one model-side effect. */
    void loadReleased(LoadRelease why);

    /**
     * Earliest cycle after the current one at which any time-gated
     * predicate can change the machine's behavior: an in-flight op
     * completes (enabling commit or a consumer) or squash re-fetch
     * resumes.  Blocked loads are excluded on purpose -- they are only
     * ever released by another op's activity, never by time passing.
     * Clamped to @p cap + 1 so a deadlocked machine still hits the cap.
     */
    uint64_t nextInterestingCycle(uint64_t cap) const;

    /** Memory latency with a probabilistic miss model (deterministic
     *  per (seed, seq)). */
    uint64_t memLatency(SeqNum seq) const;

    TraceView trc;
    const DepOracle &oracle;
    OooConfig cfg;

    /** Per-op completion-time and status lanes (SoA). */
    OpLanes state;
    /** Per-PC instance number of each memory op (precomputed; empty
     *  without a synchronizer, the only reader). */
    std::vector<uint32_t> instanceOf;

    Arb arb;
    std::unique_ptr<DependencePolicy> policy;
    std::unique_ptr<DepSynchronizer> sync;

    SeqNum head = 0;      ///< oldest uncommitted op
    SeqNum fetchPtr = 0;  ///< next op to enter the window
    /** Ops below this had their sources checked at their first fetch;
     *  a squash re-fetches them unchecked. */
    SeqNum srcChecked = 0;
    /** Where the issue scan starts: no op in [head, issueBase) is
     *  unissued.  Advanced lazily by the scan; a squash pulls it
     *  back. */
    SeqNum issueBase = 0;
    uint64_t resumeCycle = 0;
    uint64_t cycle = 0;

    /** Deadlock-guard cycle cap (maxCycles or the trace-derived
     *  default), fixed at construction. */
    uint64_t capCycle = 0;

    /** Did the current cycle mutate any semantic state?  Every mutation
     *  site must set this; a cycle that ends with it clear is provably
     *  identical to the next, which is what licenses the jump. */
    bool cycleActivity = false;

    /** Index into oracle.stores() of the first unexecuted store. */
    size_t storeFrontier = 0;

    /** The blocked loads; declared after sync, which it uses. */
    ParkedLoads parked;

    OooResult res;
};

} // namespace mdp

#endif // MDP_OOO_OOO_MODEL_HH
