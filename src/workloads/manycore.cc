#include "workloads/manycore.hh"

#include <algorithm>
#include <vector>

#include "base/random.hh"
#include "trace/builder.hh"

namespace mdp
{

namespace
{

// Address-space layout: each generator carves disjoint regions so a
// dependence exists exactly where the kernel semantics say one does.
constexpr Addr kNodeBase = 0x10000000;     // per-node records
constexpr Addr kCursorBase = 0x20000000;   // shared frontier cursors
constexpr Addr kVecXBase = 0x30000000;     // SpMV x vector (read-only)
constexpr Addr kVecYBase = 0x40000000;     // SpMV y vector
constexpr Addr kStride = 64;               // one block per element

/** Clamp a scaled count to at least @p floor. */
uint32_t
scaled(double scale, uint32_t base, uint32_t floor_count)
{
    double v = base * scale;
    if (v < floor_count)
        return floor_count;
    return static_cast<uint32_t>(v);
}

} // namespace

Trace
makeBfsFrontierTrace(double scale, uint64_t seed, unsigned num_pes)
{
    Pcg32 rng(seed ^ 0xbf5bf5bf5ULL, 0x1);
    TraceBuilder b("bfs_frontier");

    const uint32_t levels = scaled(scale, 10, 3);
    // Frontier width breathes around the machine width: early levels
    // underfill (ramp-up), middle levels overfill (queueing).
    const uint32_t width = std::max(1u, num_pes);

    // Node records stored by the previous level: (seq, addr) pairs a
    // child can load from.
    std::vector<std::pair<SeqNum, Addr>> prev, cur;
    uint64_t next_node = 0;

    for (uint32_t lvl = 0; lvl < levels; ++lvl) {
        double fill = lvl == 0 ? 0.25 : (lvl % 3 == 2 ? 1.5 : 1.0);
        uint32_t tasks_here = std::max<uint32_t>(
            1, static_cast<uint32_t>(width * fill));
        cur.clear();
        for (uint32_t i = 0; i < tasks_here; ++i) {
            Addr tpc = 0x1000 + (lvl % 4) * 0x100;
            b.beginTask(tpc);

            // Load the parent's node record: a cross-task memory
            // dependence (same address as the parent's store) whose
            // address also arrives by register forwarding from the
            // parent (pointer chase), so the interconnect's routing
            // distance is on the critical path.
            SeqNum parent_store = kNoSeq;
            Addr parent_addr = kNodeBase;   // roots load a dummy slot
            if (!prev.empty()) {
                auto &[ps, pa] =
                    prev[rng.below(static_cast<uint32_t>(prev.size()))];
                parent_store = ps;
                parent_addr = pa;
            }
            SeqNum agen = b.alu(tpc + 0x04, parent_store);
            SeqNum visit = b.load(tpc + 0x08, parent_addr, agen);

            // Edge walk: a handful of neighbor inspections chained on
            // the visit load (register dataflow through the task).
            uint32_t degree = rng.range(1, 6);
            SeqNum acc = visit;
            for (uint32_t e = 0; e < degree; ++e) {
                Addr ea = kNodeBase + ((next_node * 7 + e * 131) %
                                       100000) * kStride;
                SeqNum nb = b.load(tpc + 0x0c, ea, acc);
                acc = b.alu(tpc + 0x10, acc, nb);
            }
            b.branch(tpc + 0x14, acc);

            // Store this node's record; children of the next level
            // load it.  The data source chains to the parent's store
            // via the visit load's register edge.
            Addr my_addr = kNodeBase + (next_node % 1000000) * kStride;
            ++next_node;
            SeqNum my_store = b.store(tpc + 0x18, my_addr, agen, acc);
            (void)parent_store;
            cur.emplace_back(my_store, my_addr);

            // A few tasks per level bump the shared next-frontier
            // cursor: same address across the level, genuine
            // store-load conflicts at short task distance.
            if (rng.chance(0.2)) {
                Addr cursor = kCursorBase + (lvl % 4) * kStride;
                SeqNum old = b.load(tpc + 0x1c, cursor);
                SeqNum inc = b.alu(tpc + 0x20, old);
                b.store(tpc + 0x24, cursor, kNoSeq, inc);
            }
        }
        std::swap(prev, cur);
    }
    return b.take();
}

Trace
makeSpmvRowSplitTrace(double scale, uint64_t seed, unsigned num_pes)
{
    Pcg32 rng(seed ^ 0x59a7e5ULL, 0x2);
    TraceBuilder b("spmv_rowsplit");

    const uint32_t blocks =
        std::max(1u, num_pes) * scaled(scale, 6, 2);
    std::vector<SeqNum> block_result(blocks, kNoSeq);

    for (uint32_t blk = 0; blk < blocks; ++blk) {
        Addr tpc = 0x2000;
        b.beginTask(tpc);

        // Skewed nonzero count: most row blocks are small, a few are
        // heavy (power-law-ish row degree).
        uint32_t nnz = rng.geometric(4.0);
        if (rng.chance(0.05))
            nnz += rng.range(8, 24);

        // Software-pipelined prologue: some blocks consume the
        // previous block's result register (distance-1 forward).
        SeqNum pipe = blk > 0 && rng.chance(0.3)
                          ? block_result[blk - 1]
                          : kNoSeq;
        SeqNum acc = b.alu(tpc + 0x04, pipe);
        for (uint32_t k = 0; k < nnz; ++k) {
            // x[col]: read-only gather, no producer (x precedes the
            // kernel), column pattern scrambled per block.
            Addr xa = kVecXBase +
                      ((static_cast<uint64_t>(blk) * 37 + k * 113) %
                       50000) * kStride;
            SeqNum xv = b.load(tpc + 0x08, xa);
            SeqNum prod = b.op(OpKind::FpMul, tpc + 0x0c, xv, acc);
            acc = b.op(OpKind::FpAdd, tpc + 0x10, acc, prod);
        }

        // Sparse reduction tail: some blocks fold in a neighbor
        // block's partial sum (short-distance cross-task memory
        // dependence through y).
        if (blk > 0 && rng.chance(0.15)) {
            uint32_t nb = blk - rng.range(
                1, std::min(blk, std::max(1u, num_pes / 8)));
            Addr ya = kVecYBase + static_cast<uint64_t>(nb) * kStride;
            // The y slot is a known address, so nothing in the
            // dataflow stops this load from issuing before the
            // neighbor's store: the dependence-speculation case.
            SeqNum yv = b.load(tpc + 0x14, ya, acc);
            acc = b.op(OpKind::FpAdd, tpc + 0x18, acc, yv);
        }

        Addr my_y = kVecYBase + static_cast<uint64_t>(blk) * kStride;
        block_result[blk] = b.store(tpc + 0x1c, my_y, kNoSeq, acc);
        b.setLastValueRepeats(rng.chance(0.3));
    }
    return b.take();
}

Trace
makeUtsTrace(double scale, uint64_t seed, unsigned num_pes)
{
    Pcg32 rng(seed ^ 0x075075ULL, 0x3);
    TraceBuilder b("uts_recursion");

    const uint32_t tasks =
        std::max(1u, num_pes) * scaled(scale, 4, 2);

    // Spawn-order parent links: task i's parent is a uniformly
    // earlier task within a fan-out horizon, like a work-stealing
    // deque unwinding an unbalanced tree.
    std::vector<std::pair<SeqNum, Addr>> node(tasks,
                                              {kNoSeq, kNodeBase});

    for (uint32_t i = 0; i < tasks; ++i) {
        Addr tpc = 0x3000 + (i % 3) * 0x100;
        b.beginTask(tpc);

        // Parent node descriptor.  Half the lookups chase a pointer
        // register-forwarded from the parent (dataflow-ordered); the
        // other half index a known slot, so the load can issue before
        // the parent's store and the dependence policies earn their
        // keep.
        SeqNum parent_store = kNoSeq;
        Addr parent_addr = kNodeBase;
        if (i > 0) {
            uint32_t horizon =
                std::min(i, std::max(1u, num_pes * 2));
            uint32_t parent = i - rng.range(1, horizon);
            parent_store = node[parent].first;
            parent_addr = node[parent].second;
        }
        SeqNum agen = rng.chance(0.5)
                          ? b.alu(tpc + 0x04, parent_store)
                          : b.alu(tpc + 0x04);
        SeqNum desc = b.load(tpc + 0x08, parent_addr, agen);

        // Geometric cascade of task sizes: a few huge subtrees -- the
        // stragglers that leave the rest of the machine idle -- and a
        // long tail of near-empty ones.
        uint32_t body = rng.geometric(3.0);
        if (rng.chance(0.04))
            body += rng.range(60, 200);
        SeqNum acc = desc;
        for (uint32_t k = 0; k < body; ++k) {
            if (k % 7 == 3)
                acc = b.op(OpKind::IntMul, tpc + 0x0c, acc);
            else
                acc = b.alu(tpc + 0x10, acc);
        }
        b.branch(tpc + 0x14, acc);

        Addr my_addr =
            kNodeBase + (static_cast<uint64_t>(i) + 1) * kStride;
        node[i] = {b.store(tpc + 0x18, my_addr, agen, acc), my_addr};
        b.setLastValueRepeats(rng.chance(0.5));
    }
    return b.take();
}

} // namespace mdp
