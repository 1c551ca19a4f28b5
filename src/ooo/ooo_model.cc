#include "ooo/ooo_model.hh"

#include <algorithm>

#include "base/flat_hash.hh"
#include "base/logging.hh"
#include "base/random.hh"

namespace mdp
{

namespace
{

/** Ctor-init-list hook, as in the Multiscalar processor. */
const OooConfig &
validatedConfig(const OooConfig &config)
{
    if (config.windowSize < 1)
        mdp_fatal("windowSize must be >= 1 (got %u)", config.windowSize);
    return config;
}

} // namespace

OooProcessor::OooProcessor(const TraceView &trace,
                           const DepOracle &dep_oracle,
                           const OooConfig &config)
    : trc(trace), oracle(dep_oracle), cfg(validatedConfig(config)),
      state(trace.size()), policy(makeDependencePolicy(cfg.policyName)),
      sync(policy->needsSynchronizer()
               ? policy->makeSyncUnit(cfg.sync, cfg.organization,
                                      ModelKind::Superscalar, 0)
               : nullptr),
      capCycle(config.maxCycles
                   ? config.maxCycles
                   : 1000 + static_cast<uint64_t>(trace.size()) * 60),
      parked(state, sync.get(), cfg.windowSize)
{
    // Number dynamic instances per static PC (paper footnote 2).  A
    // precomputed numbering behaves like checkpointed counters: squash
    // and re-execution see the same instance number.  Only the
    // synchronizer reads it.
    if (!sync)
        return;
    instanceOf.assign(trc.size(), 0);
    FlatHashMap<Addr, uint32_t> counters;
    counters.reserve(1 + (oracle.loads().size() + oracle.stores().size()) / 8);
    for (SeqNum s = 0; s < trc.size(); ++s) {
        if (trc.isMemOp(s))
            instanceOf[s] = counters[trc.pc(s)]++;
    }
}

/**
 * The model-side view of one ready load.  Nested so the lazy queries
 * can reach the processor's private frontier scan and oracle wiring.
 * This model has no task-PC context and no value-prediction datapath,
 * so path predictors degenerate to counters and value hybrids to
 * their synchronization component.
 */
struct OooProcessor::IssueCtx final : LoadIssueContext
{
    OooProcessor &p;
    SeqNum seq;

    IssueCtx(OooProcessor &proc, SeqNum s) : p(proc), seq(s) {}

    Addr loadPc() const override { return p.trc.pc(seq); }
    Addr loadAddr() const override { return p.trc.addr(seq); }
    uint64_t instance() const override { return p.instanceOf[seq]; }
    LoadId loadId() const override { return seq; }

    bool
    syncSatisfied() const override
    {
        return p.state.test(seq, ParkedLoads::kSyncDone);
    }

    bool allStoresDone() override { return p.allStoresDoneBefore(seq); }

    SeqNum
    windowProducer() const override
    {
        // Producers older than the window head have committed; their
        // stores cannot be outstanding.
        SeqNum pr = p.oracle.producer(seq);
        if (pr != kNoSeq && pr >= p.head)
            return pr;
        return kNoSeq;
    }

    bool
    storeIssued(SeqNum store) const override
    {
        return p.state.test(store, kIssued);
    }

    const TaskPcSource *taskPcs() const override { return nullptr; }

    bool canValuePredict() const override { return false; }
};

OooProcessor::~OooProcessor() = default;

uint64_t
OooProcessor::memLatency(SeqNum seq) const
{
    uint64_t h = mix64(cfg.seed ^ (seq * 0x9e3779b97f4a7c15ULL));
    double u = (h >> 11) * (1.0 / 9007199254740992.0);
    return u < cfg.missRate ? cfg.missPenalty : cfg.loadLatency;
}

void
OooProcessor::checkSources(SeqNum end)
{
    for (SeqNum s = srcChecked; s < end; ++s) {
        for (SeqNum src : {trc.src1(s), trc.src2(s)}) {
            if (src != kNoSeq && src >= s)
                mdp_fatal("source %u does not precede consumer at seq %u",
                          src, s);
        }
    }
    srcChecked = end;
}

bool
OooProcessor::srcReady(SeqNum src) const
{
    if (src == kNoSeq)
        return true;
    return state.test(src, kIssued) && state.done(src) <= cycle;
}

bool
OooProcessor::srcsReady(SeqNum seq) const
{
    return srcReady(trc.src1(seq)) && srcReady(trc.src2(seq));
}

uint64_t
OooProcessor::storeFrontierBound()
{
    const std::vector<SeqNum> &stores = oracle.stores();
    while (storeFrontier < stores.size() &&
           state.test(stores[storeFrontier], kIssued)) {
        ++storeFrontier;
    }
    return storeFrontier >= stores.size() ? UINT64_MAX
                                          : stores[storeFrontier];
}

bool
OooProcessor::allStoresDoneBefore(SeqNum seq)
{
    return storeFrontierBound() >= seq;
}

bool
OooProcessor::tryIssueMem(SeqNum seq, unsigned &mem_ports)
{
    if (trc.isStore(seq)) {
        if (mem_ports == 0)
            return false;
        --mem_ports;
        executeStore(seq);
        return true;
    }

    if (mem_ports == 0)
        return false;

    // canValuePredict is false, so a load that is not parked issues
    // plainly.
    IssueCtx ctx(*this, seq);
    if (parked.park(seq, policy->loadIssueCheck(ctx, sync.get()))) {
        ++res.loadsBlocked;
        return true;
    }

    --mem_ports;
    executeLoad(seq);
    return true;
}

void
OooProcessor::executeLoad(SeqNum seq)
{
    state.setDone(seq, cycle + memLatency(seq));
    state.set(seq, kIssued);
    arb.loadExecuted(trc.addr(seq), seq, /*load_task=*/seq);
}

void
OooProcessor::executeStore(SeqNum seq)
{
    const Addr addr = trc.addr(seq);
    state.setDone(seq, cycle + 1);
    state.set(seq, kIssued);

    // Per-op "tasks" make every inter-op violation visible.
    SeqNum violator = arb.storeExecuted(addr, seq, /*store_task=*/seq);
    if (violator != kNoSeq)
        handleViolation(violator);

    // A signal-woken load re-checks at issue and consumes the kept
    // full flag, so it needs no bypass flag.
    parked.storeExecuted(trc.pc(seq), addr, sync ? instanceOf[seq] : 0,
                         seq,
                         [this](SeqNum, LoadRelease why) {
                             loadReleased(why);
                         });
}

void
OooProcessor::loadReleased(LoadRelease why)
{
    cycleActivity = true;
    if (why == LoadRelease::SyncFrontier)
        ++res.frontierReleases;
}

void
OooProcessor::handleViolation(SeqNum load)
{
    cycleActivity = true;
    ++res.misSpeculations;

    if (sync) {
        SeqNum p = oracle.producer(load);
        // Attribute the violation to the oracle's producer (the store
        // whose value the load should have seen).
        if (p != kNoSeq) {
            uint32_t dist = instanceOf[load] >= instanceOf[p]
                ? instanceOf[load] - instanceOf[p]
                : 0;
            sync->misSpeculation(trc.pc(load), trc.pc(p), dist, 0);
        }
    }

    // Squash from the offending load onward.  (The violating store
    // issued in this cycle's scan, so issueBase is already at or
    // before it; the pull-back keeps the invariant on its own.)
    issueBase = std::min(issueBase, load);
    for (SeqNum s = load; s < fetchPtr; ++s) {
        if (state.test(s, kIssued)) {
            ++res.squashedOps;
            if (trc.isLoad(s))
                arb.removeLoad(trc.addr(s), s);
            else if (trc.isStore(s))
                arb.removeStore(trc.addr(s), s);
        }
        state.resetOp(s);
    }
    fetchPtr = load;
    resumeCycle = cycle + cfg.squashPenalty;

    parked.squash(load);

    // Rewind the store frontier past the squash point.  This can move
    // the frontier *backwards*; parked.squash() has already marked its
    // scan gating dirty.
    const std::vector<SeqNum> &stores = oracle.stores();
    size_t lb = std::lower_bound(stores.begin(), stores.end(), load) -
                stores.begin();
    storeFrontier = std::min(storeFrontier, lb);
}

uint64_t
OooProcessor::nextInterestingCycle(uint64_t cap) const
{
    uint64_t next = cap + 1;
    auto consider = [&](uint64_t c) {
        if (c > cycle && c < next)
            next = c;
    };

    // Squash re-fetch point.
    consider(resumeCycle);

    // In-flight completions: each enables commit (at head) and, via
    // srcReady, its consumers.  Waking at the *earliest* completion is
    // conservative for a consumer whose other source finishes later --
    // the extra simulated cycle is idle and re-skips immediately.
    const OpLanes::FlagsView fv = state.flagsView();
    for (SeqNum s = head; s < fetchPtr; ++s)
        if (fv.test(s, kIssued))
            consider(state.done(s));
    return next;
}

OooResult
OooProcessor::run()
{
    // An empty trace leaves the default-constructed result alone.
    const SeqNum n = static_cast<SeqNum>(trc.size());
    if (n == 0)
        return res;

    while (head < n) {
        ++cycle;
        ++res.cyclesSimulated;
        if (cycle > capCycle) {
            warn("ooo: cycle cap hit with %u/%u ops committed", head, n);
            res.truncated = true;
            break;
        }
        cycleActivity = false;

        // Fetch.
        if (cycle >= resumeCycle) {
            unsigned fetched = 0;
            while (fetched < cfg.fetchWidth &&
                   fetchPtr < n &&
                   fetchPtr - head < cfg.windowSize) {
                ++fetchPtr;
                ++fetched;
            }
            if (fetched)
                cycleActivity = true;
            if (fetchPtr > srcChecked)
                checkSources(fetchPtr);
        }

        // Issue.
        unsigned simple_fu = cfg.simpleIntFUs;
        unsigned complex_fu = cfg.complexIntFUs;
        unsigned fp_fu = cfg.fpFUs;
        unsigned branch_fu = cfg.branchFUs;
        unsigned mem_ports = cfg.memPorts;
        unsigned issued = 0;

        // Visit the window in program order from its first unissued
        // op, hopping over issued and blocked ops.  Flag updates land
        // in place, so the pinned-base view stays valid across the
        // loop body.
        const OpLanes::FlagsView fv = state.flagsView();
        issueBase = static_cast<SeqNum>(
            fv.nextClear(std::max(issueBase, head), fetchPtr, kIssued));
        for (SeqNum s = static_cast<SeqNum>(
                 fv.nextClear(issueBase, fetchPtr, kNotIssuable));
             s < fetchPtr && issued < cfg.issueWidth;
             s = static_cast<SeqNum>(
                 fv.nextClear(s + 1, fetchPtr, kNotIssuable))) {
            if (!srcsReady(s))
                continue;

            const OpKind kind = trc.kind(s);
            if (isMem(kind)) {
                if (!tryIssueMem(s, mem_ports))
                    continue;
                // Issued or newly blocked -- both are state changes.
                cycleActivity = true;
                if (state.test(s, kIssued))
                    ++issued;
                continue;
            }

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
                continue;
            --*fu;
            state.setDone(s, cycle + opLatency(kind));
            state.set(s, kIssued);
            ++issued;
            cycleActivity = true;
        }

        // Release parked loads.  The bound cannot move during the scan
        // (a release never executes a store), so it is computed once.
        auto released = [this](SeqNum, LoadRelease why) {
            loadReleased(why);
        };
        parked.scan(storeFrontierBound(), released);
        parked.drainEvictions(released);

        // In-order commit.
        unsigned committed = 0;
        while (committed < cfg.commitWidth && head < fetchPtr) {
            if (!state.test(head, kIssued) || state.done(head) > cycle)
                break;
            if (trc.isLoad(head)) {
                arb.commitLoad(trc.addr(head), head);
                ++res.committedLoads;
            } else if (trc.isStore(head)) {
                arb.commitStore(trc.addr(head), head);
            }
            ++res.committedOps;
            ++head;
            ++committed;
        }
        if (committed)
            cycleActivity = true;

        // An idle cycle changed nothing, so every following cycle is
        // identical until a time-gated predicate flips; jump to just
        // before the earliest such cycle (the next increment lands on
        // it).
        if (!cycleActivity && head < n) {
            uint64_t target = nextInterestingCycle(capCycle);
            if (target > cycle + 1) {
                res.cyclesSkipped += target - 1 - cycle;
                cycle = target - 1;
            }
        }
    }
    res.cycles = cycle;
    return res;
}

} // namespace mdp
