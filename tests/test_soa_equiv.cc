/**
 * @file
 * Randomized differential tests for the SoA dense-loop kernels.
 *
 * Two layers of equivalence, all bit-exact:
 *
 *  1. Kernel vs. retained object-form reference: each simd kernel
 *     (base/simd_kernels.hh) is checked against a straight AoS loop
 *     over per-op structs on random lanes -- including the sentinel
 *     corners (zero values, UINT64_MAX completions, kNone32 versions,
 *     empty and inverted ranges) -- under both dispatch levels.
 *  2. Scalar vs. AVX2: forceLevel() pins each level in turn; every
 *     kernel result and every model observable must agree (skipped
 *     when the host lacks AVX2 -- the scalar path is then the only
 *     behavior and is covered by layer 1).
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/random.hh"
#include "base/simd_kernels.hh"
#include "multiscalar/processor.hh"
#include "multiscalar/task_info.hh"
#include "ooo/ooo_model.hh"
#include "trace/builder.hh"
#include "trace/dep_oracle.hh"

namespace mdp
{
namespace
{

// --------------------------------------------------------------------
// Layer 1: kernels vs. object-form reference loops
// --------------------------------------------------------------------

/** The retained pre-SoA op record, for the reference loops. */
struct RefOp
{
    uint64_t done = 0;
    uint16_t flags = 0;
};

struct RefLoad
{
    uint32_t seq = 0, version = 0, task = 0;
};

uint64_t
refMinPendingDone(const std::vector<RefOp> &ops, size_t begin,
                  size_t end, uint16_t required, uint64_t cycle)
{
    uint64_t best = UINT64_MAX;
    for (size_t i = begin; i < end && i < ops.size(); ++i) {
        if ((ops[i].flags & required) && ops[i].done > cycle &&
            ops[i].done < best) {
            best = ops[i].done;
        }
    }
    return best;
}

size_t
refNextReadyCandidate(const std::vector<RefOp> &ops, size_t begin,
                      size_t end, uint16_t skip)
{
    for (size_t i = begin; i < end; ++i)
        if (!(ops[i].flags & skip))
            return i;
    return end;
}

uint32_t
refMaxStoreBelow(const std::vector<uint32_t> &seqs, uint32_t bound)
{
    uint32_t best = simd::kNone32;
    bool found = false;
    for (uint32_t s : seqs) {
        if (s < bound && (!found || s > best)) {
            best = s;
            found = true;
        }
    }
    return found ? best : simd::kNone32;
}

uint32_t
refEarliestViolator(const std::vector<RefLoad> &loads, uint32_t store,
                    uint32_t store_task)
{
    uint32_t best = simd::kNone32;
    for (const RefLoad &l : loads) {
        if (l.seq > store && l.task > store_task &&
            (l.version == simd::kNone32 || l.version < store) &&
            l.seq < best) {
            best = l.seq;
        }
    }
    return best;
}

/** Dispatch levels to exercise: scalar always, AVX2 when available. */
std::vector<simd::SimdLevel>
testableLevels()
{
    std::vector<simd::SimdLevel> levels = {simd::SimdLevel::Scalar};
    if (simd::avx2Supported())
        levels.push_back(simd::SimdLevel::Avx2);
    return levels;
}

/** RAII: restore the process dispatch level after a test. */
struct LevelGuard
{
    simd::SimdLevel saved = simd::activeLevel();
    ~LevelGuard() { simd::forceLevel(saved); }
};

TEST(SoaKernels, MinPendingDoneRandomAndCorners)
{
    LevelGuard guard;
    Pcg32 rng(0xabcd);
    for (int iter = 0; iter < 200; ++iter) {
        const size_t n = rng.below(70);
        std::vector<RefOp> ops(n);
        std::vector<uint64_t> done(n);
        std::vector<uint16_t> flags(n);
        for (size_t i = 0; i < n; ++i) {
            // Corner-heavy values: zeros, small, and UINT64_MAX.
            uint32_t pick = rng.below(8);
            uint64_t d = pick == 0   ? 0
                         : pick == 1 ? UINT64_MAX
                                     : rng.below(1000);
            uint16_t f = static_cast<uint16_t>(rng.below(0x200));
            ops[i] = {d, f};
            done[i] = d;
            flags[i] = f;
        }
        const size_t begin = rng.below(static_cast<uint32_t>(n + 8));
        const size_t end = rng.below(static_cast<uint32_t>(n + 8));
        const uint16_t required =
            static_cast<uint16_t>(1u << rng.below(9));
        const uint64_t cycle =
            rng.below(4) == 0 ? UINT64_MAX : rng.below(1000);

        const size_t e = std::min(end, n);
        const uint64_t want =
            refMinPendingDone(ops, begin, e, required, cycle);
        for (simd::SimdLevel lvl : testableLevels()) {
            simd::forceLevel(lvl);
            EXPECT_EQ(want,
                      simd::minPendingDone(done.data(), flags.data(),
                                           begin, e, required, cycle))
                << "iter=" << iter << " level="
                << simd::levelName(lvl);
        }
    }
}

TEST(SoaKernels, NextReadyCandidateRandomAndCorners)
{
    LevelGuard guard;
    Pcg32 rng(0x1234);
    for (int iter = 0; iter < 200; ++iter) {
        const size_t n = rng.below(70);
        std::vector<RefOp> ops(n);
        std::vector<uint16_t> flags(n);
        for (size_t i = 0; i < n; ++i) {
            // Mostly-skip lanes: long runs for the vector path.
            uint16_t f = static_cast<uint16_t>(
                rng.below(16) == 0 ? 0 : rng.below(0x200));
            ops[i] = {0, f};
            flags[i] = f;
        }
        const size_t begin = rng.below(static_cast<uint32_t>(n + 8));
        const size_t end = std::min<size_t>(
            rng.below(static_cast<uint32_t>(n + 8)), n);
        const uint16_t skip = static_cast<uint16_t>(rng.below(0x200));

        const size_t want =
            refNextReadyCandidate(ops, begin, end, skip);
        for (simd::SimdLevel lvl : testableLevels()) {
            simd::forceLevel(lvl);
            EXPECT_EQ(want, simd::nextReadyCandidate(
                                flags.data(), begin, end, skip))
                << "iter=" << iter << " level="
                << simd::levelName(lvl);
        }
    }
}

TEST(SoaKernels, MaxStoreBelowRandomAndCorners)
{
    LevelGuard guard;
    Pcg32 rng(0x77);
    for (int iter = 0; iter < 300; ++iter) {
        const size_t n = rng.below(40);
        std::vector<uint32_t> seqs(n);
        for (size_t i = 0; i < n; ++i) {
            uint32_t pick = rng.below(8);
            // Zero is a valid store seq; the kernel must find it.
            seqs[i] = pick == 0   ? 0
                      : pick == 1 ? simd::kNone32
                                  : rng.below(500);
        }
        const uint32_t bound = rng.below(4) == 0
                                   ? simd::kNone32
                                   : rng.below(500);
        const uint32_t want = refMaxStoreBelow(seqs, bound);
        for (simd::SimdLevel lvl : testableLevels()) {
            simd::forceLevel(lvl);
            EXPECT_EQ(want,
                      simd::maxStoreBelow(seqs.data(), n, bound))
                << "iter=" << iter << " level="
                << simd::levelName(lvl);
        }
    }
}

TEST(SoaKernels, EarliestViolatorRandomAndCorners)
{
    LevelGuard guard;
    Pcg32 rng(0x99);
    for (int iter = 0; iter < 300; ++iter) {
        const size_t n = rng.below(40);
        std::vector<RefLoad> loads(n);
        std::vector<uint32_t> seq(n), version(n), task(n);
        for (size_t i = 0; i < n; ++i) {
            seq[i] = rng.below(500);
            version[i] =
                rng.below(3) == 0 ? simd::kNone32 : rng.below(500);
            task[i] = rng.below(12);
            loads[i] = {seq[i], version[i], task[i]};
        }
        const uint32_t store = rng.below(500);
        const uint32_t stask = rng.below(12);
        const uint32_t want =
            refEarliestViolator(loads, store, stask);
        for (simd::SimdLevel lvl : testableLevels()) {
            simd::forceLevel(lvl);
            EXPECT_EQ(want, simd::earliestViolator(
                                seq.data(), version.data(),
                                task.data(), n, store, stask))
                << "iter=" << iter << " level="
                << simd::levelName(lvl);
        }
    }
}

// --------------------------------------------------------------------
// Layers 2 and 3: model-level observables
// --------------------------------------------------------------------

/** Same trace shape as test_fastforward_equiv: aliasing memory
 *  traffic, latency chains, cross-task register dependences. */
Trace
randomTrace(uint64_t seed)
{
    Pcg32 rng(seed);
    TraceBuilder b("soa_equiv");
    const unsigned num_tasks = 6 + rng.below(10);
    std::vector<SeqNum> produced;

    for (unsigned t = 0; t < num_tasks; ++t) {
        b.beginTask(0x1000 + (t % 5) * 0x40);
        const unsigned ops = 6 + rng.below(36);
        for (unsigned i = 0; i < ops; ++i) {
            SeqNum s1 = kNoSeq;
            SeqNum s2 = kNoSeq;
            if (!produced.empty() && rng.below(3) != 0)
                s1 = produced[produced.size() - 1 -
                              rng.below(std::min<uint32_t>(
                                  60, static_cast<uint32_t>(
                                          produced.size())))];
            if (!produced.empty() && rng.below(4) == 0)
                s2 = produced[produced.size() - 1 -
                              rng.below(std::min<uint32_t>(
                                  20, static_cast<uint32_t>(
                                          produced.size())))];

            const uint32_t kind = rng.below(10);
            const Addr addr = 0x8000 + rng.below(24) * 0x40;
            SeqNum s;
            if (kind < 2) {
                s = b.load(0x100 + rng.below(8) * 4, addr, s1);
            } else if (kind < 4) {
                s = b.store(0x200 + rng.below(8) * 4, addr, s1, s2);
                b.lastOp().valueRepeats = rng.below(2) != 0;
            } else if (kind < 5) {
                s = b.op(OpKind::IntDiv, 0x300, s1, s2);
            } else if (kind < 6) {
                s = b.op(OpKind::FpDiv, 0x304, s1, s2);
            } else if (kind < 7) {
                s = b.branch(0x308, s1);
            } else {
                s = b.alu(0x30c + rng.below(4) * 4, s1, s2);
            }
            produced.push_back(s);
        }
    }
    return b.take();
}

const std::vector<SpecPolicy> kPolicies = {
    SpecPolicy::Always,      SpecPolicy::Never, SpecPolicy::Wait,
    SpecPolicy::PerfectSync, SpecPolicy::Sync,  SpecPolicy::ESync,
    SpecPolicy::VSync,
};

void
expectSimEqual(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cyclesSimulated, b.cyclesSimulated);
    EXPECT_EQ(a.cyclesSkipped, b.cyclesSkipped);
    EXPECT_EQ(a.committedOps, b.committedOps);
    EXPECT_EQ(a.committedLoads, b.committedLoads);
    EXPECT_EQ(a.committedStores, b.committedStores);
    EXPECT_EQ(a.committedTasks, b.committedTasks);
    EXPECT_EQ(a.misSpeculations, b.misSpeculations);
    EXPECT_EQ(a.squashedOps, b.squashedOps);
    EXPECT_EQ(a.controlStalls, b.controlStalls);
    EXPECT_EQ(a.loadsBlockedSync, b.loadsBlockedSync);
    EXPECT_EQ(a.loadsBlockedFrontier, b.loadsBlockedFrontier);
    EXPECT_EQ(a.frontierReleases, b.frontierReleases);
    EXPECT_EQ(a.syncWaitCycles, b.syncWaitCycles);
    EXPECT_EQ(a.signalWaitCycles, b.signalWaitCycles);
    EXPECT_EQ(a.frontierWaitCycles, b.frontierWaitCycles);
    EXPECT_EQ(a.valuePredUses, b.valuePredUses);
    EXPECT_EQ(a.valuePredHits, b.valuePredHits);
    EXPECT_EQ(a.valuePredMisses, b.valuePredMisses);
    EXPECT_EQ(a.pred.nn, b.pred.nn);
    EXPECT_EQ(a.pred.ny, b.pred.ny);
    EXPECT_EQ(a.pred.yn, b.pred.yn);
    EXPECT_EQ(a.pred.yy, b.pred.yy);
    EXPECT_EQ(a.misspecLog, b.misspecLog);
}

void
expectOooEqual(const OooResult &a, const OooResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cyclesSimulated, b.cyclesSimulated);
    EXPECT_EQ(a.cyclesSkipped, b.cyclesSkipped);
    EXPECT_EQ(a.committedOps, b.committedOps);
    EXPECT_EQ(a.committedLoads, b.committedLoads);
    EXPECT_EQ(a.misSpeculations, b.misSpeculations);
    EXPECT_EQ(a.squashedOps, b.squashedOps);
    EXPECT_EQ(a.loadsBlocked, b.loadsBlocked);
    EXPECT_EQ(a.frontierReleases, b.frontierReleases);
}

SimResult
runMs(const TraceView &trc, const DepOracle &oracle,
      const TaskSet &tasks, SpecPolicy policy)
{
    MultiscalarConfig cfg;
    cfg.policy = policy;
    cfg.taskMispredictRate = 0.15;
    cfg.logMisSpeculations = true;
    MultiscalarProcessor proc(trc, oracle, tasks, cfg);
    return proc.run();
}

OooResult
runOoo(const TraceView &trc, const DepOracle &oracle, SpecPolicy policy)
{
    OooConfig cfg;
    cfg.policy = policy;
    OooProcessor proc(trc, oracle, cfg);
    return proc.run();
}

TEST(SoaEquiv, ScalarVsAvx2AllPoliciesBothModels)
{
    if (!simd::avx2Supported())
        GTEST_SKIP() << "host has no AVX2; scalar is the only path";
    LevelGuard guard;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        Trace trc = randomTrace(seed);
        TraceView view(trc);
        DepOracle oracle(view);
        TaskSet tasks(view);
        for (SpecPolicy p : kPolicies) {
            SCOPED_TRACE(testing::Message()
                         << "seed=" << seed
                         << " policy=" << static_cast<int>(p));
            simd::forceLevel(simd::SimdLevel::Scalar);
            SimResult ms_s = runMs(view, oracle, tasks, p);
            OooResult oo_s = runOoo(view, oracle, p);
            simd::forceLevel(simd::SimdLevel::Avx2);
            SimResult ms_v = runMs(view, oracle, tasks, p);
            OooResult oo_v = runOoo(view, oracle, p);
            expectSimEqual(ms_s, ms_v);
            expectOooEqual(oo_s, oo_v);
        }
    }
}

TEST(SoaEquiv, LanePoolRecycledBuffersAreClean)
{
    // A processor built from a pool that holds a dirty recycled
    // buffer must behave exactly like one built from fresh memory.
    Trace trc = randomTrace(9);
    TraceView view(trc);
    DepOracle oracle(view);
    TaskSet tasks(view);
    MultiscalarConfig cfg;
    cfg.policy = SpecPolicy::Sync;

    SimResult fresh;
    {
        MultiscalarProcessor proc(view, oracle, tasks, cfg);
        fresh = proc.run();
    }

    LanePool pool;
    {
        // First run soils the pool's buffers with final op state.
        MultiscalarProcessor proc(view, oracle, tasks, cfg, &pool);
        proc.run();
    }
    EXPECT_GT(pool.cached(), 0u);
    {
        MultiscalarProcessor proc(view, oracle, tasks, cfg, &pool);
        expectSimEqual(fresh, proc.run());
    }
}

} // namespace
} // namespace mdp
