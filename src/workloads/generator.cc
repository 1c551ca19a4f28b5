/**
 * @file
 * Expansion of a WorkloadProfile into a dynamic trace.
 *
 * Address-space layout (all regions disjoint, so only the intended
 * dependence structure exists):
 *
 *   0x1000'0000  shared scalar pool (background cross-task deps)
 *   0x2000'0000  recurrence scalars (sameAddress edges)
 *   0x3000'0000  recurrence slot buffers (moving edges)
 *   0x4000'0000  private streaming loads
 *   0x4800'0000  private streaming stores
 *   0x6000'0000  spill slots (unique per task)
 *
 * Static-PC layout keeps load/store/other PCs in disjoint ranges so
 * static dependence edges are exactly the pairs the profile intends.
 */

#include "workloads/workload.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/random.hh"
#include "trace/builder.hh"

namespace mdp
{

namespace
{

constexpr Addr kScalarBase = 0x10000000;
constexpr Addr kRecScalarBase = 0x20000000;
constexpr Addr kRecBufBase = 0x30000000;
constexpr Addr kStreamLoadBase = 0x40000000;
constexpr Addr kStreamStoreBase = 0x48000000;
constexpr Addr kSpillBase = 0x60000000;

constexpr Addr kBgLoadPc = 0x100000;
constexpr Addr kBgStorePc = 0x200000;
constexpr Addr kScalarLoadPc = 0x300000;
constexpr Addr kScalarStorePc = 0x400000;
constexpr Addr kRecLoadPc = 0x500000;
constexpr Addr kRecStorePc = 0x600000;
constexpr Addr kAluPc = 0x700000;
constexpr Addr kSpillStorePc = 0x800000;
constexpr Addr kSpillLoadPc = 0x900000;
constexpr Addr kTaskPcBase = 0x4000000;

/** Number of per-edge slots for moving (sameAddress=false) edges; must
 *  exceed any plausible in-flight distance so slots never alias. */
constexpr uint32_t kRecBufSlots = 1024;

/** Power-law index draw: concentrated near zero for skew > 1. */
uint32_t
powerlaw(Pcg32 &rng, uint32_t n, double skew)
{
    if (n <= 1)
        return 0;
    double u = rng.uniform();
    auto idx = static_cast<uint32_t>(std::pow(u, skew) * n);
    return idx >= n ? n - 1 : idx;
}

/** A recurrence event scheduled at a position inside a task. */
struct RecEvent
{
    uint32_t position;
    uint32_t edge;        ///< global static-edge id
    uint32_t family;      ///< index into profile.recurrences
    uint8_t pcVariant;    ///< store-PC variant (SplitPc families)
    bool isStore;
};

/** Flattened static edge of a recurrence family. */
struct Edge
{
    uint32_t family;
    uint32_t indexInFamily;
};

} // namespace

Trace
Workload::generate(double scale, uint64_t seed_override) const
{
    const WorkloadProfile &p = prof;
    uint64_t seed = seed_override ? seed_override : p.seed;
    Pcg32 rng(seed, mix64(seed ^ 0x777));

    auto iters = static_cast<uint64_t>(
        std::max(1.0, p.baseIterations * scale));

    // Flatten recurrence families into globally numbered static edges.
    std::vector<Edge> edges;
    for (uint32_t f = 0; f < p.recurrences.size(); ++f)
        for (uint32_t k = 0; k < p.recurrences[f].count; ++k)
            edges.push_back({f, k});

    TraceBuilder builder(p.name);
    // Reserve a typical size against regrowth by doubling, which keeps
    // the old and new buffers resident at once.  It is no upper bound:
    // recurrence events add ops past a task's drawn size, and 13 of the
    // 23 profiles outgrow it and fall back to doubling (126.gcc: 536,234
    // ops against 176,400 reserved at scale 0.1).  An exact bound raised
    // peak RSS and bought no speed (EXPERIMENTS.md, "Refuted
    // simplifications").
    builder.reserve(iters * p.tasksPerIteration * (p.maxTaskSize + 8));

    // Position-dependent weight for background stores: programs with
    // stack-discipline writes put their stores early in each task,
    // which makes waiting for the store frontier cheap (xlisp).  The
    // weight integrates to ~1 so the overall store fraction holds.
    auto storeWeight = [&p](uint32_t pos, uint32_t size) {
        if (p.storeEarlyExp <= 0.0 || size <= 1)
            return 1.0;
        double q = static_cast<double>(pos) / (size - 1);
        return (p.storeEarlyExp + 1.0) *
               std::pow(1.0 - q, p.storeEarlyExp);
    };

    // Dataflow context.
    SeqNum prev_induction = kNoSeq;

    const uint32_t path_count = std::max(1u, p.pathCount);

    for (uint64_t i = 0; i < iters; ++i) {
        // Control path taken by this iteration.
        uint32_t path = 0;
        if (path_count > 1 && !rng.chance(p.path0Bias))
            path = 1 + rng.below(path_count - 1);

        for (uint32_t t = 0; t < p.tasksPerIteration; ++t) {
            Addr task_pc = kTaskPcBase + path * 0x1000 + t * 0x100;
            builder.beginTask(task_pc);

            uint32_t size = rng.range(p.minTaskSize, p.maxTaskSize);

            // ----- schedule recurrence events into this task ---------
            std::vector<RecEvent> events;
            auto jittered = [&](double base, double jitter) {
                double pos = base + jitter * (2.0 * rng.uniform() - 1.0);
                pos = std::clamp(pos, 0.0, 1.0);
                return static_cast<uint32_t>(pos * (size - 1));
            };
            for (uint32_t e = 0; e < edges.size(); ++e) {
                if (e % p.tasksPerIteration != t)
                    continue;
                const RecurrenceSpec &r = p.recurrences[edges[e].family];

                // Load side: reads the value produced distance
                // iterations ago (only meaningful once warm).
                if (i >= r.distance && rng.chance(r.loadProb)) {
                    events.push_back(
                        {jittered(r.loadPosition, r.positionJitter), e,
                         edges[e].family, 0, false});
                }

                // Store side: path sensitivity either gates the store
                // or redirects it to an alternate static store PC.
                bool split = r.pathCount > 1 &&
                    r.pathStyle == RecurrenceSpec::PathStyle::SplitPc;
                bool on_path = split || r.pathCount <= 1 || path == 0;
                if (on_path && rng.chance(r.activeProb)) {
                    // Each control path uses its own static store
                    // instruction (hash-hit vs hash-miss update code).
                    uint8_t variant =
                        split ? static_cast<uint8_t>(path) : uint8_t{0};
                    events.push_back(
                        {jittered(r.storePosition, r.positionJitter), e,
                         edges[e].family, variant, true});
                }
            }
            std::stable_sort(events.begin(), events.end(),
                             [](const RecEvent &a, const RecEvent &b) {
                                 return a.position < b.position;
                             });

            // ----- schedule spill pairs ------------------------------
            // Stored as (position, matching-store-seq placeholder).
            struct Spill
            {
                uint32_t storePos;
                uint32_t loadPos;
                uint32_t slot;
                Addr addr;
                SeqNum storeSeq = kNoSeq;
            };
            std::vector<Spill> spills;
            {
                uint32_t n = 0;
                // Poisson-ish: expected spillsPerTask.
                double expect = p.spillsPerTask;
                while (expect >= 1.0) {
                    ++n;
                    expect -= 1.0;
                }
                if (rng.chance(expect))
                    ++n;
                for (uint32_t s2 = 0; s2 < n && size > 4; ++s2) {
                    uint32_t store_pos = rng.below(size - 3);
                    uint32_t dist = std::max<uint32_t>(
                        2, rng.geometric(p.spillDistance));
                    uint32_t load_pos =
                        std::min(size - 1, store_pos + dist);
                    uint32_t slot = rng.below(p.spillPcPool);
                    // Stack frames recycle (64 frames of 64 bytes), so
                    // spill traffic stays cache-resident; the reuse
                    // distance (64 tasks) is far outside any window,
                    // so no speculative dependences arise from it.
                    Addr addr = kSpillBase +
                        (builder.currentTask() % 64) * 64ull + s2 * 8;
                    spills.push_back({store_pos, load_pos, slot, addr});
                }
            }

            // ----- emit ----------------------------------------------
            size_t next_event = 0;
            SeqNum recent[16];
            uint32_t recent_n = 0;
            auto remember = [&](SeqNum s) {
                recent[recent_n % 16] = s;
                ++recent_n;
            };
            auto random_src = [&]() -> SeqNum {
                if (recent_n == 0 || !rng.chance(0.7))
                    return kNoSeq;
                uint32_t lim = std::min<uint32_t>(recent_n, 16);
                return recent[(recent_n - 1 - rng.below(lim)) % 16];
            };
            auto addr_src = [&](uint32_t chain) -> SeqNum {
                // Model address-generation depth: pick a recent op
                // roughly `chain` positions back.
                if (recent_n == 0)
                    return kNoSeq;
                uint32_t lim = std::min<uint32_t>(recent_n, 16);
                uint32_t back = std::min(lim - 1, chain);
                return recent[(recent_n - 1 - back) % 16];
            };

            for (uint32_t pos = 0; pos < size; ++pos) {
                // Recurrence events own their positions (all events
                // scheduled at this position are emitted).
                while (next_event < events.size() &&
                       events[next_event].position == pos) {
                    const RecEvent &ev = events[next_event++];
                    const RecurrenceSpec &r = p.recurrences[ev.family];
                    if (ev.isStore) {
                        // Dedicated address-computation chain.
                        SeqNum chain = random_src();
                        for (uint32_t c = 0; c < r.storeAddrChain; ++c) {
                            chain = builder.alu(
                                kAluPc + ev.edge * 8 + c, chain);
                        }
                        Addr a = r.sameAddress
                            ? kRecScalarBase + ev.edge * 64ull
                            : kRecBufBase + ev.edge * 0x100000ull +
                              (i % kRecBufSlots) * 8;
                        SeqNum s = builder.store(
                            kRecStorePc + ev.edge * 4 +
                                ev.pcVariant * 0x40000,
                            a, chain, random_src());
                        if (r.valueStability > 0.0)
                            builder.setLastValueRepeats(
                                rng.chance(r.valueStability));
                        remember(s);
                    } else {
                        uint64_t src_iter = i - r.distance;
                        Addr a = r.sameAddress
                            ? kRecScalarBase + ev.edge * 64ull
                            : kRecBufBase + ev.edge * 0x100000ull +
                              (src_iter % kRecBufSlots) * 8;
                        SeqNum s = builder.load(kRecLoadPc + ev.edge * 4,
                                                a, random_src());
                        remember(s);
                    }
                }

                bool spill_done = false;
                for (auto &sp : spills) {
                    if (sp.storePos == pos && sp.storeSeq == kNoSeq) {
                        sp.storeSeq = builder.store(
                            kSpillStorePc + sp.slot * 4, sp.addr,
                            random_src(), random_src());
                        remember(sp.storeSeq);
                        spill_done = true;
                        break;
                    }
                    if (sp.loadPos == pos && sp.storeSeq != kNoSeq &&
                        sp.loadPos != sp.storePos) {
                        SeqNum s = builder.load(
                            kSpillLoadPc + sp.slot * 4, sp.addr,
                            random_src());
                        remember(s);
                        sp.loadPos = UINT32_MAX; // consumed
                        spill_done = true;
                        break;
                    }
                }
                if (spill_done)
                    continue;

                // First op of a task: induction-variable update, a
                // register dependence carried over the ring.
                if (pos == 0) {
                    SeqNum s = builder.alu(kAluPc + 4096,
                                           prev_induction);
                    prev_induction = s;
                    remember(s);
                    continue;
                }

                // Background mix.
                double roll = rng.uniform();
                if (roll < p.fracLoads) {
                    bool shared = rng.chance(p.sharedScalarFrac);
                    Addr a;
                    Addr pc;
                    if (shared) {
                        uint32_t sc = powerlaw(rng, p.numGlobalScalars,
                                               p.scalarSkew);
                        a = kScalarBase + sc * 8ull;
                        pc = kScalarLoadPc + sc * 4;
                    } else {
                        a = kStreamLoadBase +
                            ((i * 64 + pos) * 8) % p.arrayWorkingSet;
                        pc = kBgLoadPc +
                             powerlaw(rng, p.staticPcPool, 1.5) * 4;
                    }
                    SeqNum s = builder.load(pc, a,
                                            addr_src(p.addrChainLen));
                    remember(s);
                } else if (roll < p.fracLoads +
                                  p.fracStores * storeWeight(pos, size)) {
                    bool shared = rng.chance(p.sharedScalarFrac *
                                             p.scalarStoreScale);
                    Addr a;
                    Addr pc;
                    if (shared) {
                        uint32_t sc = powerlaw(rng, p.numGlobalScalars,
                                               p.scalarSkew);
                        a = kScalarBase + sc * 8ull;
                        pc = kScalarStorePc + sc * 4;
                    } else {
                        a = kStreamStoreBase +
                            ((i * 64 + pos) * 8) % p.arrayWorkingSet;
                        pc = kBgStorePc +
                             powerlaw(rng, p.staticPcPool, 1.5) * 4;
                    }
                    SeqNum s = builder.store(pc, a,
                                             addr_src(p.addrChainLen),
                                             random_src());
                    remember(s);
                } else if (roll < p.fracLoads + p.fracStores +
                                  p.fracBranches) {
                    SeqNum s = builder.branch(
                        kAluPc + 8192 + rng.below(64) * 4, random_src());
                    remember(s);
                } else if (roll < p.fracLoads + p.fracStores +
                                  p.fracBranches + p.fracFp) {
                    double fp_roll = rng.uniform();
                    OpKind k = fp_roll < 0.5 ? OpKind::FpAdd
                             : fp_roll < 0.9 ? OpKind::FpMul
                                             : OpKind::FpDiv;
                    SeqNum s = builder.op(k,
                                          kAluPc + 12288 +
                                              rng.below(128) * 4,
                                          random_src(), random_src());
                    remember(s);
                } else if (roll < p.fracLoads + p.fracStores +
                                  p.fracBranches + p.fracFp +
                                  p.fracComplexInt) {
                    OpKind k = rng.chance(0.8) ? OpKind::IntMul
                                               : OpKind::IntDiv;
                    SeqNum s = builder.op(k,
                                          kAluPc + 16384 +
                                              rng.below(32) * 4,
                                          random_src(), random_src());
                    remember(s);
                } else {
                    SeqNum s = builder.alu(kAluPc + rng.below(256) * 4,
                                           random_src(), random_src());
                    remember(s);
                }
            }
        }
    }

    return builder.take();
}

} // namespace mdp
