#include "multiscalar/processor.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"
#include "base/random.hh"

namespace mdp
{

namespace
{

/** Ctor-init-list hook: fatal on a bad config before any derived
 *  member (memory system, lanes) can divide or index with it. */
const MultiscalarConfig &
validatedConfig(const MultiscalarConfig &config)
{
    validateMultiscalarConfig(config);
    return config;
}

/** bit_ceil of the most ops any @p k consecutive tasks hold. */
size_t
inFlightRing(const TaskSet &tasks, unsigned k)
{
    const uint32_t w = std::min(k, tasks.numTasks());
    size_t span = 1;
    for (uint32_t t = w; t <= tasks.numTasks(); ++t)
        span = std::max<size_t>(span,
                                tasks.taskStart(t) - tasks.taskStart(t - w));
    return std::bit_ceil(span);
}

} // namespace

MultiscalarProcessor::MultiscalarProcessor(const TraceView &trace,
                                           const DepOracle &dep_oracle,
                                           const TaskSet &task_set,
                                           const MultiscalarConfig &config)
    : trc(trace), oracle(dep_oracle), tasks(task_set),
      cfg(validatedConfig(config)), state(trace.size()),
      stages(config.numStages),
      ringMask(inFlightRing(task_set, config.numStages) - 1),
      readyAt(ringMask + 1), consHead(ringMask + 1),
      consNext(2 * (ringMask + 1)), memsys(config),
      policy(makeDependencePolicy(cfg.policyName)),
      sync(policy->needsSynchronizer()
               ? policy->makeSyncUnit(cfg.sync, cfg.organization,
                                      ModelKind::Multiscalar,
                                      cfg.numStages)
               : nullptr),
      peFrontier(config.numStages),
      dueBits((config.numStages + 63) / 64, 0),
      capCycle(config.maxCycles
                   ? config.maxCycles
                   : 1000 + static_cast<uint64_t>(trace.size()) * 60),
      // A blocked list can never exceed the in-flight window
      // (numStages stage windows).
      parked(state, sync.get(),
             static_cast<size_t>(config.numStages) * config.stageWindow)
{
    if (cfg.topology == Topology::Mesh) {
        auto [mx, my] = resolveMeshDims(cfg);
        meshXr = mx;
        meshYr = my;
    }
    dueBuf.reserve(cfg.numStages);

    // Each task's memory ops are a run of the oracle's lists; a task
    // set built over another trace would index past them.
    const uint32_t nt = tasks.numTasks();
    if (tasks.loadOffset(nt) != oracle.loads().size() ||
        tasks.storeOffset(nt) != oracle.stores().size()) {
        mdp_fatal("task set counts %u loads and %u stores, the oracle "
                  "%zu and %zu",
                  tasks.loadOffset(nt), tasks.storeOffset(nt),
                  oracle.loads().size(), oracle.stores().size());
    }

    // Compiler-exposed dependences (section 6): seed the table as if
    // each edge had already mis-speculated enough to arm.
    if (sync) {
        for (const StaticEdge &e : cfg.preloadEdges) {
            sync->misSpeculation(e.ldpc, e.stpc, e.dist, e.storeTaskPc);
            sync->misSpeculation(e.ldpc, e.stpc, e.dist, e.storeTaskPc);
        }
    }
}

/**
 * The model-side view of one ready load.  Nested so the lazy queries
 * can reach the processor's private frontier scan and oracle wiring.
 */
struct MultiscalarProcessor::IssueCtx final : LoadIssueContext
{
    MultiscalarProcessor &p;
    SeqNum seq;
    uint32_t t;   ///< the load's task (its instance number)

    IssueCtx(MultiscalarProcessor &proc, SeqNum s, uint32_t task)
        : p(proc), seq(s), t(task)
    {
    }

    Addr loadPc() const override { return p.trc.pc(seq); }
    Addr loadAddr() const override { return p.trc.addr(seq); }
    uint64_t instance() const override { return t; }
    LoadId loadId() const override { return seq; }

    bool
    syncSatisfied() const override
    {
        return p.state.test(seq, ParkedLoads::kSyncDone);
    }

    bool allStoresDone() override { return p.storeFrontierBound() >= seq; }

    SeqNum
    windowProducer() const override
    {
        // Only cross-task producers within the active window matter:
        // intra-task ordering is enforced unconditionally, and
        // committed tasks' stores have long executed.
        SeqNum pr = p.oracle.producer(seq);
        if (pr != kNoSeq && p.trc.taskId(pr) != t &&
            p.trc.taskId(pr) >= p.committedTasks)
            return pr;
        return kNoSeq;
    }

    bool
    storeIssued(SeqNum store) const override
    {
        return p.state.test(store, kIssued);
    }

    const TaskPcSource *taskPcs() const override { return &p; }

    bool canValuePredict() const override { return true; }
};

MultiscalarProcessor::~MultiscalarProcessor() = default;

bool
MultiscalarProcessor::taskMispredicted(uint32_t task) const
{
    if (cfg.seed == 0 || cfg.taskMispredictRate <= 0.0)
        return false;
    uint64_t h = mix64(cfg.seed ^ (task * 0x9e3779b97f4a7c15ULL));
    double u = (h >> 11) * (1.0 / 9007199254740992.0);
    return u < cfg.taskMispredictRate;
}

SimResult
MultiscalarProcessor::run()
{
    // An empty task set leaves the default-constructed result alone.
    const uint32_t num_tasks = tasks.numTasks();
    if (num_tasks == 0) {
        trc.evict();
        return res;
    }

    while (committedTasks < num_tasks) {
        ++cycle;
        ++res.cyclesSimulated;
        if (cycle > capCycle) {
            warn("multiscalar: cycle cap %llu hit with %llu/%u tasks "
                 "committed; results are partial",
                 static_cast<unsigned long long>(capCycle),
                 static_cast<unsigned long long>(committedTasks),
                 num_tasks);
            res.truncated = true;
            break;
        }
        cycleActivity = false;
        res.stageSlots += cfg.numStages;

        sequencerStep();
        collectDue();
        walkDue();
        // The bound cannot move during the scan (a release never
        // executes a store), so it is computed once.
        auto released = [this](SeqNum l, LoadRelease why) {
            loadReleased(l, why);
        };
        parked.scan(storeFrontierBound(), released);
        parked.drainEvictions(released);
        commitStep();

        // An idle cycle changed nothing, so every following cycle is
        // identical until a time-gated predicate flips; jump to just
        // before the earliest such cycle (the next increment lands on
        // it).
        if (!cycleActivity && committedTasks < num_tasks) {
            uint64_t target = nextInterestingCycle(capCycle);
            if (target > cycle + 1) {
                res.cyclesSkipped += target - 1 - cycle;
                cycle = target - 1;
            }
        }
    }

    res.cycles = cycle;
    res.committedTasks = committedTasks;
    if (sync)
        res.syncStats = sync->stats();
    trc.evict(); // a mapped trace stays resident only while read
    return res;
}

uint64_t
MultiscalarProcessor::stageNextInteresting(unsigned k, uint64_t cap) const
{
    const Stage &st = stages[k];
    if (st.task < 0)
        return cap + 1;

    uint64_t next = cap + 1;
    auto consider = [&](uint64_t c) {
        if (c > cycle && c < next)
            next = c;
    };

    // Squash re-fetch point of this stage.
    consider(st.resumeCycle);

    // Ops whose producers have all issued become ready at readyAt,
    // once the last result arrives over the interconnect.  An op with
    // an unissued producer (kAwaitingSrc) has no timed readiness; the
    // producer's own issue wakes the stage through its consumer list.
    // The window is the non-issued range [windowBase, fetchPtr).
    const OpLanes::FlagsView fv = state.flagsView();
    for (SeqNum seq = st.windowBase; seq < st.fetchPtr; ++seq)
        if (!fv.test(seq, kNotIssuable))
            consider(readyAt[slot(seq)]);

    return next;
}

uint64_t
MultiscalarProcessor::nextInterestingCycle(uint64_t cap)
{
    uint64_t next = cap + 1;
    auto consider = [&](uint64_t c) {
        if (c > cycle && c < next)
            next = c;
    };

    // Sequencer recovery from a task misprediction.
    if (mispredictStall && mispredictResume != 0)
        consider(mispredictResume);

    // Head-task commit waits for its last completion to land.  This
    // is a global term: headness flips at commit time without any
    // per-stage event.
    if (committedTasks < nextTask) {
        uint32_t h = static_cast<uint32_t>(committedTasks);
        const Stage &hs = stages[h % cfg.numStages];
        if (hs.task == static_cast<int64_t>(committedTasks)) {
            if (hs.run.issuedOps == tasks.taskSize(h))
                consider(hs.run.lastDone);
        }
    }

    // Per-stage terms come from the frontier.  Park times are
    // conservative-early (stored <= the exact per-stage event time),
    // so the earliest entry is validated against the exact recompute
    // and re-parked when it was only a stale hint; the loop strictly
    // raises stored times toward exact values, so it terminates.
    uint64_t t;
    uint32_t id;
    while (peFrontier.peekMin(t, id)) {
        if (t >= next)
            break;   // a global term is earlier than any stage event
        uint64_t exact = stageNextInteresting(id, cap);
        if (exact <= t) {
            // Hint confirmed (exact == t under the conservative-early
            // invariant); this is the jump target.
            consider(exact);
            break;
        }
        park(id, exact);
    }
    return next;
}

void
MultiscalarProcessor::collectDue()
{
    // Ascending bit order is ring order from the head task's stage.
    baseSlot = static_cast<unsigned>(committedTasks % cfg.numStages);
    dueBuf.clear();
    peFrontier.popDue(cycle, dueBuf);
    for (uint32_t id : dueBuf) {
        if (stages[id].task < 0)
            continue;   // empty slot; re-armed at the next assignment
        uint32_t pos = (id + cfg.numStages - baseSlot) % cfg.numStages;
        dueBits[pos / 64] |= uint64_t{1} << (pos % 64);
    }
}

void
MultiscalarProcessor::walkDue()
{
    // Stages are visited in circular order from the head slot, so
    // intra-cycle effects (FU contention, same-cycle wakes) land in a
    // fixed order.  wakeStage can set bits above visitPos mid-walk;
    // the word is re-read after every visit.
    for (size_t w = 0; w < dueBits.size(); ++w) {
        while (dueBits[w]) {
            visitPos = static_cast<uint32_t>(
                w * 64 + std::countr_zero(dueBits[w]));
            dueBits[w] &= dueBits[w] - 1;
            unsigned idx = static_cast<unsigned>(
                (visitPos + baseSlot) % cfg.numStages);
            uint64_t before = actStamp;
            ++res.stageVisits;
            stageStep(idx);
            if (stages[idx].task < 0)
                continue;   // committed this cycle; unscheduled
            if (actStamp != before) {
                // Something changed; the next cycle may differ.
                peFrontier.scheduleEarlier(idx, cycle + 1);
            } else {
                // Quiet visit: park at the stage's next timed event,
                // overriding stale earlier hints -- any future wake
                // source re-arms via wakeStage.
                park(idx, stageNextInteresting(idx, capCycle));
            }
        }
    }
    visitPos = kNoPos;
}

void
MultiscalarProcessor::park(unsigned s, uint64_t t)
{
    if (t > capCycle)
        peFrontier.unschedule(s);
    else
        peFrontier.schedule(s, t);
}

void
MultiscalarProcessor::wakeStage(unsigned s, uint64_t t)
{
    if (t > cycle) {
        peFrontier.scheduleEarlier(s, t);
        return;
    }
    // Same-cycle wake (t <= cycle), raised mid-walk.  A flag cleared
    // mid-walk is observed this cycle only by stages at LATER ring
    // positions: set the stage's due bit if its position has not been
    // passed yet (a set bit means it is already queued), else defer to
    // the next cycle.  Outside the walk visitPos is kNoPos, so every
    // same-cycle wake defers.
    uint32_t pos = (s + cfg.numStages - baseSlot) % cfg.numStages;
    uint64_t bit = uint64_t{1} << (pos % 64);
    if (dueBits[pos / 64] & bit)
        return;
    if (visitPos != kNoPos && pos > visitPos)
        dueBits[pos / 64] |= bit;
    else
        peFrontier.scheduleEarlier(s, cycle + 1);
}

void
MultiscalarProcessor::onIssued(SeqNum seq, uint32_t t)
{
    TaskRun &tr = stages[t % cfg.numStages].run;
    ++tr.issuedOps;
    tr.lastDone = std::max(tr.lastDone, state.done(seq));

    // Forwarding traffic accounting: one interconnect transfer per
    // cross-task register edge, weighted by route hops.
    for (SeqNum src : {trc.src1(seq), trc.src2(seq)}) {
        if (src == kNoSeq)
            continue;
        uint32_t ptask = trc.taskId(src);
        if (ptask != t) {
            ++res.regForwards;
            res.regForwardHops += regHops(ptask, t);
        }
    }

    // Ready every consumer this was the last unissued producer of.
    // Only fetched ops carry kAwaitingSrc (fetch sets it, squash
    // clears it), so the flag alone selects fetched consumers.  Also
    // wake each consumer (all sit in younger assigned tasks) at its
    // operand-arrival time; a wake keeps the earliest, so the walk
    // order is free.  Consumers in later tasks pay the interconnect
    // latency; same-task consumers can issue next cycle at the
    // earliest (the issue scan already passed seq's window slot).
    uint64_t done = state.done(seq);
    for (SeqNum q = consHead[slot(seq)]; q != kNoSeq;
         q = consNext[2 * slot(q) + (trc.src1(q) != seq)]) {
        if (state.test(q, kAwaitingSrc) && armReady(q))
            state.clear(q, kAwaitingSrc);
        uint32_t tq = trc.taskId(q);
        uint64_t arrival = done;
        if (tq != t)
            arrival += regHops(t, tq) * cfg.ringHopLatency;
        wakeStage(tq % cfg.numStages,
                  std::max(cycle + 1, arrival));
    }
}

Addr
MultiscalarProcessor::taskPc(uint64_t instance) const
{
    if (instance >= committedTasks && instance < nextTask)
        return tasks.taskPc(static_cast<uint32_t>(instance));
    return 0;
}

// ---------------------------------------------------------------------
// Sequencer
// ---------------------------------------------------------------------

void
MultiscalarProcessor::sequencerStep()
{
    if (nextTask >= tasks.numTasks())
        return;

    if (mispredictStall) {
        // Recovery: the wrong-path work drains (all older tasks must
        // commit), then the sequencer re-fetches the right task after
        // the recovery penalty.  Arming the resume timer is a state
        // change in an otherwise-quiet cycle -- without the activity
        // mark, fast-forward would jump past it to the cycle cap.
        if (mispredictResume == 0 && committedTasks == nextTask) {
            mispredictResume = cycle + cfg.mispredictPenalty;
            act();
        }
        if (mispredictResume == 0 || cycle < mispredictResume)
            return;
        mispredictStall = false;
        mispredictResume = 0;
        act();
        // fall through to assignment
    } else if (taskMispredicted(static_cast<uint32_t>(nextTask))) {
        mispredictStall = true;
        ++res.controlStalls;
        act();
        return;
    }

    unsigned idx = static_cast<unsigned>(nextTask % cfg.numStages);
    Stage &st = stages[idx];
    if (st.task >= 0)
        return;   // the PE slot is still busy with an older task

    st.task = static_cast<int64_t>(nextTask);
    st.fetchPtr = tasks.taskStart(static_cast<uint32_t>(nextTask));
    st.windowBase = st.fetchPtr;
    st.windowCount = 0;
    st.resumeCycle = cycle + 1;
    st.run = TaskRun{};
    registerConsumers(static_cast<uint32_t>(nextTask));
    ++nextTask;
    act();
    wakeStage(idx, st.resumeCycle);
}

void
MultiscalarProcessor::registerConsumers(uint32_t t)
{
    // Producers in committed tasks never issue again.  A link is
    // written when its op registers and read only through that list.
    const SeqNum oldest =
        tasks.taskStart(static_cast<uint32_t>(committedTasks));
    for (SeqNum s = tasks.taskStart(t); s < tasks.taskEnd(t); ++s) {
        const SeqNum src[2] = {trc.src1(s), trc.src2(s)};
        // A source that does not precede its consumer (a hostile trace
        // file) would alias a younger op's ring slot.
        for (SeqNum p : src)
            if (p != kNoSeq && p >= s)
                mdp_fatal("source %u does not precede consumer at seq %u",
                          p, s);
        consHead[slot(s)] = kNoSeq;
        // Operand 1's link serves both when they name one producer.
        for (unsigned k = 0; k < 2; ++k) {
            if (src[k] == kNoSeq || src[k] < oldest ||
                (k && src[1] == src[0]))
                continue;
            consNext[2 * slot(s) + k] = consHead[slot(src[k])];
            consHead[slot(src[k])] = s;
        }
    }
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

bool
MultiscalarProcessor::armReady(SeqNum seq)
{
    uint32_t t = trc.taskId(seq);
    uint64_t ready = 0;
    for (SeqNum src : {trc.src1(seq), trc.src2(seq)}) {
        if (src == kNoSeq)
            continue;
        if (!state.test(src, kIssued))
            return false;
        uint64_t r = state.done(src);
        uint32_t ptask = trc.taskId(src);
        if (ptask != t)
            r += regHops(ptask, t) * cfg.ringHopLatency;
        ready = std::max(ready, r);
    }
    readyAt[slot(seq)] = ready;
    return true;
}

void
MultiscalarProcessor::classify(SeqNum load, bool predicted, bool actual)
{
    (void)load;
    if (predicted)
        actual ? ++res.pred.yy : ++res.pred.yn;
    else
        actual ? ++res.pred.ny : ++res.pred.nn;
}

bool
MultiscalarProcessor::tryIssueMem(SeqNum seq, unsigned &mem_ports)
{
    uint32_t t = trc.taskId(seq);

    if (trc.isStore(seq)) {
        if (mem_ports == 0)
            return false;
        --mem_ports;
        executeStore(seq);
        return true;
    }

    // Loads.  Intra-task memory dependences are never speculated: all
    // older stores of this task must have executed.
    if (firstPendingStore(t) < seq)
        return false;
    if (mem_ports == 0)
        return false;

    IssueCtx ctx(*this, seq, t);
    LoadDecision d = policy->loadIssueCheck(ctx, sync.get());
    if (parked.park(seq, d)) {
        if (d.action == LoadAction::BlockFrontier) {
            ++res.loadsBlockedFrontier;
        } else {
            ++res.loadsBlockedSync;
        }
        if (d.action == LoadAction::BlockSync) {
            state.set(seq, kPredPendingY);
            state.setDone(seq, cycle);   // stash the block time
        }
        return true;
    }

    if (d.action == LoadAction::IssueValuePredicted) {
        // Hybrid: consume the predicted value instead of
        // synchronizing; validated when the producer executes.
        state.set(seq, kValuePred);
        ++res.valuePredUses;
    } else if (d.consultedSync) {
        if (d.check.fullBypass) {
            // Predicted dependence satisfied before the load arrived.
            // The paper counts this as a predicted-Y / actual-N
            // outcome (section 5.5) -- unless the bypass merely
            // consumes the signal this load already waited for.
            if (!state.test(seq, kSignaled))
                classify(seq, true, false);
        } else if (!d.check.predicted) {
            state.set(seq, kPredPendingN);
        }
    }

    --mem_ports;
    executeLoad(seq);
    return true;
}

void
MultiscalarProcessor::executeLoad(SeqNum seq)
{
    const Addr addr = trc.addr(seq);
    const uint32_t t = trc.taskId(seq);
    state.setDone(seq, memsys.access(addr, cycle, false));
    state.set(seq, kIssued);
    arb.loadExecuted(addr, seq, t);
    onIssued(seq, t);
}

void
MultiscalarProcessor::executeStore(SeqNum seq)
{
    const Addr addr = trc.addr(seq);
    const uint32_t t = trc.taskId(seq);
    state.setDone(seq, memsys.access(addr, cycle, true));
    state.set(seq, kIssued);
    onIssued(seq, t);

    // Violation check: did a younger load from a later task already
    // read this location?  Benignly absorbed (value-predicted)
    // violations re-scan in case an unpredicted load also raced.
    SeqNum violator = arb.storeExecuted(addr, seq, t);
    while (violator != kNoSeq && handleViolation(violator, seq))
        violator = arb.findViolator(addr, seq, t);

    // Wake the loads waiting for this store: its ideal-sync waiters,
    // then those the synchronization table signals.
    const bool repeats = trc.valueRepeats(seq);
    parked.storeExecuted(trc.pc(seq), addr, t, seq,
                         [&](SeqNum l, LoadRelease why) {
                             if (why == LoadRelease::Signal)
                                 policy->syncSignalObserved(trc.pc(l),
                                                            repeats);
                             loadReleased(l, why);
                         });
}

// ---------------------------------------------------------------------
// Memory-ordering helpers
// ---------------------------------------------------------------------

uint64_t
MultiscalarProcessor::firstPendingStore(uint32_t t)
{
    std::span<const SeqNum> stores = taskStores(t);
    TaskRun &tr = stages[t % cfg.numStages].run;
    while (tr.storePtr < stores.size() &&
           state.test(stores[tr.storePtr], kIssued)) {
        ++tr.storePtr;
    }
    return tr.storePtr < stores.size() ? stores[tr.storePtr] : UINT64_MAX;
}

uint64_t
MultiscalarProcessor::storeFrontierBound()
{
    // A task behind the cursor has executed every store; only a squash
    // can un-execute one, and squashFrom pulls the cursor back.
    storeTask = std::max(storeTask, committedTasks);
    for (; storeTask < nextTask; ++storeTask) {
        uint64_t s = firstPendingStore(static_cast<uint32_t>(storeTask));
        if (s != UINT64_MAX)
            return s;
    }
    return UINT64_MAX;
}

// ---------------------------------------------------------------------
// Stage pipeline
// ---------------------------------------------------------------------

/** One issue attempt for a scan candidate; shared by stageStep's two
 *  scan drivers. */
__attribute__((always_inline)) inline void
MultiscalarProcessor::issueOne(SeqNum seq, uint32_t t, Stage &stage,
                               unsigned &simple_fu, unsigned &complex_fu,
                               unsigned &fp_fu, unsigned &branch_fu,
                               unsigned &mem_ports, unsigned &issued)
{
    if (!srcsReady(seq))
        return;

    const OpKind kind = trc.kind(seq);
    if (isMem(kind)) {
        if (!tryIssueMem(seq, mem_ports))
            return;
        // Either issued or transitioned to blocked; blocked ops do
        // not consume an issue slot (and stay in the window).
        act();
        if (!state.test(seq, kIssued))
            return;
    } else {
        unsigned *fu = nullptr;
        switch (kind) {
          case OpKind::IntAlu:
            fu = &simple_fu;
            break;
          case OpKind::IntMul:
          case OpKind::IntDiv:
            fu = &complex_fu;
            break;
          case OpKind::FpAdd:
          case OpKind::FpMul:
          case OpKind::FpDiv:
            fu = &fp_fu;
            break;
          case OpKind::Branch:
            fu = &branch_fu;
            break;
          default:
            fu = &simple_fu;
            break;
        }
        if (*fu == 0)
            return;
        --*fu;
        state.setDone(seq, cycle + opLatency(kind));
        state.set(seq, kIssued);
        onIssued(seq, t);
    }
    // The op left the window (kIssued set by every issue path).
    --stage.windowCount;
    ++issued;
    act();
}

void
MultiscalarProcessor::stageStep(unsigned stage_idx)
{
    Stage &stage = stages[stage_idx];
    if (stage.task < 0 || cycle < stage.resumeCycle)
        return;

    uint32_t t = static_cast<uint32_t>(stage.task);
    SeqNum end = tasks.taskEnd(t);

    // Fetch in program order into the scheduling window (the range
    // [windowBase, fetchPtr) of the status lane).  An op whose
    // producers have not all issued waits out of the scan until the
    // last one issues (onIssued).
    unsigned fetched = 0;
    while (fetched < cfg.issueWidth &&
           stage.windowCount < cfg.stageWindow &&
           stage.fetchPtr < end) {
        if (!armReady(stage.fetchPtr))
            state.set(stage.fetchPtr, kAwaitingSrc);
        ++stage.fetchPtr;
        ++stage.windowCount;
        ++fetched;
    }
    if (fetched)
        act();

    // Out-of-order issue from the window.
    unsigned simple_fu = cfg.simpleIntFUs;
    unsigned complex_fu = cfg.complexIntFUs;
    unsigned fp_fu = cfg.fpFUs;
    unsigned branch_fu = cfg.branchFUs;
    unsigned mem_ports = cfg.memPorts;
    unsigned issued = 0;

    // Retire the issued prefix from the range view.
    const OpLanes::FlagsView fv = state.flagsView();
    while (stage.windowBase < stage.fetchPtr &&
           fv.test(stage.windowBase, kIssued))
        ++stage.windowBase;

    // Scan the window in program order, one masked lane test per op
    // through the pinned-base view.  fetchPtr is re-read every
    // iteration because a squash inside tryIssueMem can rewind it;
    // flag updates land in place, so the view stays valid.
    for (SeqNum seq = stage.windowBase;
         seq < stage.fetchPtr && issued < cfg.issueWidth; ++seq) {
        if (fv.test(seq, kNotIssuable))
            continue;
        issueOne(seq, t, stage, simple_fu, complex_fu, fp_fu, branch_fu,
                 mem_ports, issued);
    }
}

// ---------------------------------------------------------------------
// Blocked-load release
// ---------------------------------------------------------------------

void
MultiscalarProcessor::loadReleased(SeqNum l, LoadRelease why)
{
    act();
    if (why != LoadRelease::Producer && why != LoadRelease::Frontier) {
        // It left the synchronizer.
        const uint64_t waited = cycle - state.done(l);
        res.syncWaitCycles += waited;
        if (why == LoadRelease::Signal) {
            state.set(l, kSignaled);
            res.signalWaitCycles += waited;
        } else if (why == LoadRelease::SyncFrontier) {
            res.frontierWaitCycles += waited;
            ++res.frontierReleases;
        }
        state.setDone(l, 0);
        if (state.test(l, kPredPendingY)) {
            state.clear(l, kPredPendingY);
            classify(l, true, why == LoadRelease::Signal);
        }
    }
    const bool by_store =
        why == LoadRelease::Producer || why == LoadRelease::Signal;
    wakeStage(trc.taskId(l) % cfg.numStages, by_store ? cycle : cycle + 1);
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

bool
MultiscalarProcessor::handleViolation(SeqNum load, SeqNum store)
{
    const Addr lpc = trc.pc(load);
    const Addr spc = trc.pc(store);
    const bool repeats = trc.valueRepeats(store);

    // Value hybrids train on every examined violation and absorb the
    // benign ones (correct prediction: no squash).
    const bool was_vp = state.test(load, kValuePred);
    if (policy->absorbViolation({lpc, was_vp, repeats})) {
        ++res.valuePredHits;
        arb.refreshLoadVersion(trc.addr(load), load, store);
        return true;
    }
    if (was_vp)
        ++res.valuePredMisses;

    ++res.misSpeculations;
    if (cfg.logMisSpeculations)
        res.misspecLog.emplace_back(lpc, spc);

    // Table 8: a mis-speculated load was a predicted-N / actual-Y.
    if (state.test(load, kPredPendingN)) {
        state.clear(load, kPredPendingN);
        classify(load, false, true);
    }

    if (sync) {
        uint32_t stask = trc.taskId(store);
        uint32_t dist = trc.taskId(load) - stask;
        sync->misSpeculation(lpc, spc, dist, tasks.taskPc(stask));
    }

    squashFrom(load);
    return false;
}

void
MultiscalarProcessor::squashFrom(SeqNum squash_start)
{
    act();
    uint32_t task0 = trc.taskId(squash_start);

    // Reset every fetched op from the squash point to the youngest
    // assigned task (ops past fetchPtr are clean already).  Work older
    // than the offending load survives, as in the paper ("instructions
    // following the load are squashed").
    for (uint64_t t = task0; t < nextTask; ++t) {
        uint32_t tt = static_cast<uint32_t>(t);
        Stage &st = stages[tt % cfg.numStages];
        SeqNum begin = std::max(tasks.taskStart(tt), squash_start);

        for (SeqNum s = begin; s < st.fetchPtr; ++s) {
            if (state.test(s, kIssued)) {
                ++res.squashedOps;
                if (trc.isLoad(s))
                    arb.removeLoad(trc.addr(s), s);
                else if (trc.isStore(s))
                    arb.removeStore(trc.addr(s), s);
            }
            state.resetOp(s);
        }

        // Recount task0's surviving prefix and rewind fetch to the
        // squash point; the surviving window is its non-issued ops.
        TaskRun &tr = st.run;
        tr = TaskRun{};
        for (SeqNum s = tasks.taskStart(tt); s < begin; ++s) {
            if (state.test(s, kIssued)) {
                ++tr.issuedOps;
                tr.lastDone = std::max(tr.lastDone, state.done(s));
            }
        }
        st.fetchPtr = begin;
        st.windowBase = std::min(st.windowBase, begin);
        st.windowCount = static_cast<uint32_t>(
            (begin - tasks.taskStart(tt)) - tr.issuedOps);
        st.resumeCycle = cycle + cfg.squashPenalty;
        wakeStage(tt % cfg.numStages, st.resumeCycle);
    }

    // Forget the waits of squashed loads.  The storePtr rewinds above
    // can move the frontier bound backwards, and tasks from task0 on
    // may have unexecuted stores again.  (A violation squash finds the
    // cursor at or before the violating store's task already; the
    // pull-back keeps the cursor invariant independent of who
    // squashes.)
    parked.squash(squash_start);
    storeTask = std::min<uint64_t>(storeTask, task0);
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

void
MultiscalarProcessor::commitStep()
{
    if (committedTasks >= nextTask)
        return;
    uint32_t t = static_cast<uint32_t>(committedTasks);
    Stage &st = stages[t % cfg.numStages];
    if (st.task != static_cast<int64_t>(committedTasks))
        return;

    uint32_t size = tasks.taskSize(t);
    if (st.run.issuedOps < size || st.run.lastDone > cycle)
        return;

    // Retire memory state and finish prediction accounting.
    for (SeqNum l : taskLoads(t)) {
        arb.commitLoad(trc.addr(l), l);
        if (state.test(l, kPredPendingN)) {
            state.clear(l, kPredPendingN);
            classify(l, false, false);
        }
    }
    for (SeqNum s : taskStores(t))
        arb.commitStore(trc.addr(s), s);

    res.committedOps += size;
    res.committedLoads += taskLoads(t).size();
    res.committedStores += taskStores(t).size();

    st.task = -1;
    st.windowCount = 0;
    peFrontier.unschedule(t % cfg.numStages);
    ++committedTasks;
    act();
}

} // namespace mdp
