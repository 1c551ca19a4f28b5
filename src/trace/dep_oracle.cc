#include "trace/dep_oracle.hh"

#include <algorithm>
#include <bit>

#include "base/flat_hash.hh"

namespace mdp
{

DepOracle::DepOracle(const TraceView &trace)
    : trc(trace), loadBits((trace.size() + 63) / 64),
      rankBase(loadBits.size())
{
    // Counting pass over the 1-byte kind column: the load map, its
    // rank, and the exact sizes of the lists, so none of them grows by
    // doubling.
    const size_t n = trace.size();
    uint32_t num_loads = 0;
    uint32_t num_stores = 0;
    for (size_t w = 0; w < loadBits.size(); ++w) {
        rankBase[w] = num_loads;
        uint64_t bits = 0;
        const size_t end = std::min(n, 64 * w + 64);
        for (size_t s = 64 * w; s < end; ++s) {
            const OpKind k = trace.kind(static_cast<SeqNum>(s));
            bits |= uint64_t{k == OpKind::Load} << (s % 64);
            num_stores += k == OpKind::Store;
        }
        loadBits[w] = bits;
        num_loads += static_cast<uint32_t>(std::popcount(bits));
    }
    loadSeqs.reserve(num_loads);
    storeSeqs.reserve(num_stores);
    prods.reserve(num_loads);

    // last_store is a point-lookup map that is never iterated, so the
    // flat open-addressed table is safe.  It holds at most one entry
    // per store; the distinct-address heuristic caps that for
    // store-heavy traces.
    FlatHashMap<Addr, SeqNum> last_store;
    last_store.reserve(std::min<size_t>(num_stores, n / 8) + 16);
    for (SeqNum s = 0; s < n; ++s) {
        const OpKind k = trace.kind(s);
        if (k == OpKind::Store) {
            last_store[trace.addr(s)] = s;
            storeSeqs.push_back(s);
        } else if (k == OpKind::Load) {
            const SeqNum *p = last_store.find(trace.addr(s));
            prods.push_back(p ? *p : kNoSeq);
            loadSeqs.push_back(s);
        }
    }
    trace.evict(); // a mapped trace stays resident only while read
}

bool
DepOracle::interTask(SeqNum load_seq) const
{
    SeqNum p = producer(load_seq);
    return p != kNoSeq && trc.taskId(p) != trc.taskId(load_seq);
}

uint32_t
DepOracle::taskDistance(SeqNum load_seq) const
{
    SeqNum p = producer(load_seq);
    if (p == kNoSeq)
        return 0;
    return trc.taskId(load_seq) - trc.taskId(p);
}

} // namespace mdp
