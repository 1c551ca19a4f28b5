#include "window/window_model.hh"

#include <algorithm>
#include <unordered_map>

#include "base/ordered.hh"

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

    // Count per-static-edge mis-speculations.
    std::unordered_map<uint64_t, uint64_t> edge_counts;

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
        ++edge_counts[(ldpc << 20) ^ stpc];
        for (auto &ddc : ddcs)
            ddc.access(ldpc, stpc);
    }

    res.staticDeps = edge_counts.size();

    // Static edges covering 99.9% of dynamic mis-speculations.
    // Drain the hash map in key order (base/ordered.hh) so no
    // implementation-defined iteration order reaches the stats.
    std::vector<uint64_t> counts;
    counts.reserve(edge_counts.size());
    for (const auto &[k, v] : sortedByKey(edge_counts))
        counts.push_back(v);
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
