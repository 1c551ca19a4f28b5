#include "window/window_model.hh"

#include <algorithm>

#include "base/flat_hash.hh"

namespace mdp
{

WindowModel::WindowModel(const TraceView &trace,
                         const DepOracle &dep_oracle)
    : trc(trace), oracle(dep_oracle)
{}

WindowStudyResult
WindowModel::study(uint32_t window_size,
                   const std::vector<size_t> &ddc_sizes) const
{
    WindowStudyResult res;
    res.windowSize = window_size;

    std::vector<DepDependenceCache> ddcs;
    ddcs.reserve(ddc_sizes.size());
    for (size_t sz : ddc_sizes)
        ddcs.emplace_back(sz);

    // Count per-static-edge mis-speculations: each edge gets the next
    // counts slot when first seen (edge_slot holds slot + 1).
    FlatHashMap<uint64_t, uint32_t> edge_slot;
    std::vector<uint64_t> counts;

    const std::vector<SeqNum> &loads = oracle.loads();
    const std::vector<SeqNum> &producers = oracle.producers();
    for (size_t i = 0; i < loads.size(); ++i) {
        const SeqNum load = loads[i];
        const SeqNum st = producers[i];
        if (st == kNoSeq || load - st >= window_size)
            continue;
        ++res.misSpeculations;
        Addr ldpc = trc.pc(load);
        Addr stpc = trc.pc(st);
        uint32_t &slot = edge_slot[(ldpc << 20) ^ stpc];
        if (slot == 0) {
            counts.push_back(0);
            slot = static_cast<uint32_t>(counts.size());
        }
        ++counts[slot - 1];
        for (auto &ddc : ddcs)
            ddc.access(ldpc, stpc);
    }

    res.staticDeps = counts.size();

    // Static edges covering 99.9% of dynamic mis-speculations.
    std::sort(counts.begin(), counts.end(), std::greater<>());
    // ceil(0.999 * n): covering "99.9% of mis-speculations" must cover
    // at least one when any occurred.
    uint64_t needed = (res.misSpeculations * 999 + 999) / 1000;
    uint64_t acc = 0;
    for (uint64_t c : counts) {
        if (acc >= needed)
            break;
        acc += c;
        ++res.staticDepsFor999;
    }

    for (size_t i = 0; i < ddcs.size(); ++i)
        res.ddcMissRates.emplace_back(ddc_sizes[i], ddcs[i].missRate());

    return res;
}

} // namespace mdp

namespace mdp
{

Histogram
WindowModel::distanceHistogram(size_t num_buckets) const
{
    Histogram h(num_buckets);
    const std::vector<SeqNum> &loads = oracle.loads();
    const std::vector<SeqNum> &producers = oracle.producers();
    for (size_t i = 0; i < loads.size(); ++i) {
        if (producers[i] != kNoSeq)
            h.sample(loads[i] - producers[i]);
    }
    return h;
}

} // namespace mdp
