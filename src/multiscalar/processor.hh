/**
 * @file
 * Cycle-driven Multiscalar timing model (section 5.2 configuration).
 *
 * The processor sequences a trace's tasks onto a ring of processing
 * stages (task t runs on stage t mod numStages).  Each stage fetches
 * its task in order and issues up to issueWidth ready ops per cycle
 * from a small scheduling window.  Register dependences crossing tasks
 * pay ring-hop latency.  Intra-task memory dependences are never
 * speculated (a load waits until all earlier same-task stores have
 * executed); inter-task memory dependences are handled per the
 * configured speculation policy.  An ARB detects violations; recovery
 * squashes the offending load's task and all younger tasks.  Blocked
 * loads park on, and are released through, the shared ParkedLoads
 * protocol (mdp/parked_loads.hh); this model supplies the
 * store-frontier bound and turns each release into wait-cycle counts,
 * its Table 8 classification and a stage wake.
 */

#ifndef MDP_MULTISCALAR_PROCESSOR_HH
#define MDP_MULTISCALAR_PROCESSOR_HH

#include <memory>
#include <span>
#include <vector>

#include "base/event_frontier.hh"
#include "base/soa_lanes.hh"
#include "mdp/dep_policy.hh"
#include "mdp/parked_loads.hh"
#include "mdp/sync_unit.hh"
#include "multiscalar/arb.hh"
#include "multiscalar/config.hh"
#include "multiscalar/interconnect.hh"
#include "multiscalar/memsys.hh"
#include "multiscalar/task_info.hh"
#include "trace/dep_oracle.hh"
#include "trace/trace.hh"

namespace mdp
{

/**
 * One simulation run of one trace under one configuration.  Construct
 * and call run() once.
 */
class MultiscalarProcessor : public TaskPcSource
{
  public:
    /** Fatal (exit 1) on a bad config, or when @p tasks counts other
     *  memory ops than @p oracle lists; run() is fatal on a source
     *  that does not precede its consumer. */
    MultiscalarProcessor(const TraceView &trace, const DepOracle &oracle,
                         const TaskSet &tasks,
                         const MultiscalarConfig &config);
    ~MultiscalarProcessor() override;

    /**
     * Execute the whole trace -- until every task commits or the cycle
     * cap trips -- and return aggregate results.  Each simulated cycle
     * visits only the stages whose frontier entry is due, and a cycle
     * that changes nothing jumps straight to nextInterestingCycle().
     */
    SimResult run();

    /** TaskPcSource: PC of an in-flight task, 0 when unknown. */
    Addr taskPc(uint64_t instance) const override;

  private:
    // Op-state flags, above the ParkedLoads bits.
    static constexpr unsigned kBit0 = ParkedLoads::kFirstModelBit;
    /** Woken by a store signal; the pending full flag will be consumed
     *  at issue (no re-classification). */
    static constexpr uint16_t kSignaled = 1 << kBit0;
    static constexpr uint16_t kIssued = 1 << (kBit0 + 1);
    static constexpr uint16_t kPredPendingN = 1 << (kBit0 + 2);
    static constexpr uint16_t kPredPendingY = 1 << (kBit0 + 3);
    /** The load consumed a predicted value instead of synchronizing
     *  (VSync); a violation by a value-repeating store is benign. */
    static constexpr uint16_t kValuePred = 1 << (kBit0 + 4);
    /** Fetched while a producer had not issued yet; the last
     *  producer's issue clears it and sets the op's readyAt. */
    static constexpr uint16_t kAwaitingSrc = 1 << (kBit0 + 5);

    /** Flags that take an op out of the issue scan. */
    static constexpr uint16_t kNotIssuable =
        kIssued | ParkedLoads::kBlocked | kAwaitingSrc;

    struct TaskRun
    {
        uint32_t storePtr = 0;     ///< first possibly-unexecuted store
        uint32_t issuedOps = 0;
        uint64_t lastDone = 0;     ///< max doneCycle of issued ops
    };

    /**
     * A ring slot.  The scheduling window is a *range view* over the
     * packed status lane: exactly the non-issued ops in
     * [windowBase, fetchPtr), in ascending order.  windowBase is
     * lazily advanced past the issued prefix, windowCount mirrors the
     * window occupancy (fetch gating), and the issue scan skips
     * non-candidates with one flags-lane test each -- no per-stage seq
     * vector to erase/compact every cycle.
     */
    struct Stage
    {
        int64_t task = -1;
        SeqNum fetchPtr = 0;
        SeqNum windowBase = 0;
        uint32_t windowCount = 0;
        uint64_t resumeCycle = 0;
        TaskRun run;
    };

    /** LoadIssueContext over one ready load (defined in the .cc). */
    struct IssueCtx;

    // --- per-cycle phases -------------------------------------------
    void sequencerStep();

    /** Task @p t was just assigned: check its ops' sources and put
     *  each op on the consumer lists of its in-flight producers. */
    void registerConsumers(uint32_t t);

    /** Fetch into stage @p stage_idx's window and issue from it. */
    void stageStep(unsigned stage_idx);

    /** One issue attempt for a stageStep scan candidate.
     *  Force-inlined: the out-of-line form passes ten live references
     *  per candidate and spills the FU budget out of registers, which
     *  costs a few percent of the whole run on the dense benches. */
    __attribute__((always_inline)) inline
    void issueOne(SeqNum seq, uint32_t t, Stage &stage,
                  unsigned &simple_fu, unsigned &complex_fu,
                  unsigned &fp_fu, unsigned &branch_fu,
                  unsigned &mem_ports, unsigned &issued);
    void commitStep();

    // --- per-PE event frontier --------------------------------------
    /**
     * Drain the PE frontier into this cycle's due bitmap: the
     * positions (ring order relative to the head task's stage) of
     * every stage whose park time has arrived.  Skipping every other
     * stage is invisible: a stage is only parked past a cycle when
     * stepping it that cycle could not mutate any semantic state, and
     * every event that can change that verdict wakes it (wakeStage).
     */
    void collectDue();

    /** Visit the due stages in ring order, then re-park each one. */
    void walkDue();

    /**
     * Park stage @p s at @p t, its exact next interesting cycle; a
     * stage with none before the cycle cap leaves the frontier until
     * a wake re-arms it.
     */
    void park(unsigned s, uint64_t t);

    /**
     * Lower stage @p s's park time to @p t.  A wake at the current
     * cycle (a flag cleared mid-walk by another stage's store) sets
     * the stage's due bit when its ring position comes after the one
     * being visited, so the stage still sees the change this cycle,
     * and otherwise re-arms it for the next cycle.
     */
    void wakeStage(unsigned s, uint64_t t);

    /** Producer @p seq (task @p t) issued: task progress, forwarding
     *  statistics, readiness of each consumer whose last producer this
     *  was, and a wake of each consumer's stage at its arrival cycle. */
    void onIssued(SeqNum seq, uint32_t t);

    /**
     * If every producer of @p seq has issued, set its readyAt slot to the
     * cycle its last operand arrives (done plus interconnect hops for
     * a cross-task producer) and return true; otherwise false.
     */
    bool armReady(SeqNum seq);

    /**
     * The per-stage portion of nextInterestingCycle() -- squash
     * resume and timed window readiness of stage @p k, strictly after
     * the current cycle; @p cap + 1 when none.  It is the exact park
     * time of the stage.
     */
    uint64_t stageNextInteresting(unsigned k, uint64_t cap) const;

    /**
     * Earliest cycle after the current one at which a time-gated
     * predicate can change behavior: sequencer recovery completes,
     * the head task's last completion lands (commit), or a stage's
     * park time arrives (squash resume, or an op's operands arriving
     * over the interconnect).  Blocked loads are excluded on purpose
     * -- only
     * another op's activity releases them.  Park times are
     * conservative-early (wakes only ever lower them), so the top
     * frontier entry is re-validated against stageNextInteresting()
     * until it is exact, at which point no other entry is earlier.
     * Clamped to @p cap + 1, so a deadlocked machine still hits the
     * cap.
     */
    uint64_t nextInterestingCycle(uint64_t cap);

    /** Record a semantic mutation: licenses no jump this cycle, and
     *  marks the currently visited stage as active. */
    void
    act()
    {
        cycleActivity = true;
        ++actStamp;
    }

    /** Forwarding hops from producer task @p p to consumer task
     *  @p c -- the interconnect.hh formulas, dispatched inline. */
    uint64_t
    regHops(uint32_t p, uint32_t c) const
    {
        return cfg.topology == Topology::Ring
            ? ringTaskHops(p, c)
            : meshTaskHops(p, c, cfg.numStages, meshXr, meshYr);
    }

    // --- issue helpers ----------------------------------------------
    /** Every operand of the fetched, non-awaiting op @p seq has
     *  arrived by the current cycle. */
    bool srcsReady(SeqNum seq) const { return readyAt[slot(seq)] <= cycle; }

    /** Try to issue a memory op; returns true if it issued (or became
     *  blocked -- in either case the window slot is handled). */
    bool tryIssueMem(SeqNum seq, unsigned &mem_ports);

    void executeLoad(SeqNum seq);
    void executeStore(SeqNum seq);

    // --- memory-ordering helpers ------------------------------------
    /** Task @p t's loads, in program order: its run of the oracle's
     *  list. */
    std::span<const SeqNum>
    taskLoads(uint32_t t) const
    {
        return {oracle.loads().data() + tasks.loadOffset(t),
                oracle.loads().data() + tasks.loadOffset(t + 1)};
    }

    /** Task @p t's stores, in program order. */
    std::span<const SeqNum>
    taskStores(uint32_t t) const
    {
        return {oracle.stores().data() + tasks.storeOffset(t),
                oracle.stores().data() + tasks.storeOffset(t + 1)};
    }

    /** Sequence number of task @p t's oldest unexecuted store
     *  (UINT64_MAX when none); advances the task's storePtr. */
    uint64_t firstPendingStore(uint32_t t);

    /**
     * Sequence number of the oldest unexecuted store across all
     * in-flight tasks (UINT64_MAX when none).  Every store older than
     * op @c seq has executed iff the bound is >= seq: tasks younger
     * than the op's own contribute only stores past its task's end, so
     * the global minimum decides exactly like a walk over the op's
     * task and the older ones.  Tasks occupy ascending sequence
     * ranges, so the minimum is the first pending store of the oldest
     * task that has one; storeTask caches that task.
     */
    uint64_t storeFrontierBound();

    /**
     * Parked load @p l was released: account its synchronization wait
     * (stashed block time in the done lane), settle its Table 8
     * outcome, and wake its stage -- this cycle for a store's release,
     * which a later stage in ring order still sees, else the next.
     */
    void loadReleased(SeqNum l, LoadRelease why);

    // --- recovery -----------------------------------------------------
    /** @return true when the violation was absorbed benignly by a
     *  correct value prediction (no squash happened). */
    bool handleViolation(SeqNum load, SeqNum store);

    /** Squash @p squash_start and everything younger; older work in
     *  the same task survives (the paper squashes "the instructions
     *  following the load"). */
    void squashFrom(SeqNum squash_start);

    // --- classification (Table 8) -----------------------------------
    void classify(SeqNum load, bool predicted, bool actual);

    bool taskMispredicted(uint32_t task) const;

    TraceView trc;
    const DepOracle &oracle;
    const TaskSet &tasks;
    MultiscalarConfig cfg;

    /** Per-op completion-time and status lanes (SoA), one entry per
     *  op: a value from task p reaches task c (c - p) * ringHopLatency
     *  cycles after it completes, so an arbitrarily old producer's
     *  completion can still decide a consumer's readyAt. */
    OpLanes state;
    std::vector<Stage> stages;

    /**
     * Wakeup state of the in-flight ops, in rings indexed by slot():
     * bit_ceil of the most ops any numStages consecutive tasks hold,
     * so no two in-flight ops share a slot.  readyAt is the operand-
     * arrival cycle of a fetched op without kAwaitingSrc (set at fetch
     * or by the last producer's issue).  consHead[slot(p)] is the
     * youngest consumer registered on producer p (kNoSeq ends a list)
     * and consNext[2 * slot(c) + k] follows c on its operand k's list.
     */
    size_t ringMask = 0;
    std::vector<uint64_t> readyAt;
    std::vector<SeqNum> consHead;
    std::vector<SeqNum> consNext;
    size_t slot(SeqNum seq) const { return seq & ringMask; }

    MemorySystem memsys;
    Arb arb;
    std::unique_ptr<DependencePolicy> policy;
    std::unique_ptr<DepSynchronizer> sync;

    // --- per-PE event frontier state --------------------------------
    /** Resolved mesh grid (0 when the topology is the ring). */
    unsigned meshXr = 0;
    unsigned meshYr = 0;
    /** Park time per stage; due stages are popped each cycle. */
    EventFrontier peFrontier;
    /** Scratch: ids popped due this cycle. */
    std::vector<uint32_t> dueBuf;
    /** This cycle's unvisited due stages, one bit per ring position;
     *  the stage walk clears the lowest set bit, and same-cycle wakes
     *  set bits above visitPos. */
    std::vector<uint64_t> dueBits;
    /** Ring position being visited; kNoPos outside the stage walk. */
    static constexpr uint32_t kNoPos = UINT32_MAX;
    uint32_t visitPos = kNoPos;
    /** committedTasks % numStages, latched when the due set forms. */
    unsigned baseSlot = 0;
    /** Mutation counter behind act(); a stage whose step leaves it
     *  unchanged provably did nothing and parks at its exact next
     *  interesting cycle. */
    uint64_t actStamp = 0;

    /** Oldest in-flight task that may still have an unexecuted store:
     *  storeFrontierBound() advances it, squashFrom() pulls it back. */
    uint64_t storeTask = 0;

    // Sequencer state.
    uint64_t nextTask = 0;
    uint64_t committedTasks = 0;
    bool mispredictStall = false;
    uint64_t mispredictResume = 0;

    uint64_t cycle = 0;
    SimResult res;

    /** Deadlock-guard cycle cap (maxCycles or the trace-derived
     *  default), fixed at construction. */
    uint64_t capCycle = 0;

    /** Did the current cycle mutate any semantic state?  Every mutation
     *  site must set this; a cycle that ends with it clear is provably
     *  identical to the next, which is what licenses the jump. */
    bool cycleActivity = false;

    /** The blocked loads; declared after sync, which it uses. */
    ParkedLoads parked;
};

} // namespace mdp

#endif // MDP_MULTISCALAR_PROCESSOR_HH
