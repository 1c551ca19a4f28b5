#include "mdp/value_pred.hh"

#include "base/logging.hh"

namespace mdp
{

ValuePredictor::ValuePredictor(size_t pool_size, unsigned counter_bits,
                               unsigned threshold)
    : bits(counter_bits), thresh(threshold), entries(pool_size),
      lru(pool_size)
{
    mdp_assert(pool_size > 0, "value predictor pool must be non-empty");
    for (auto &e : entries)
        e.conf = SatCounter(bits);
}

ValuePredictor::Entry &
ValuePredictor::lookupOrAllocate(Addr pc)
{
    if (const size_t *hit = index.find(pc)) {
        lru.touch(*hit);
        return entries[*hit];
    }
    size_t victim = lru.victim();
    Entry &e = entries[victim];
    if (e.valid)
        index.erase(e.pc);
    e.pc = pc;
    e.conf = SatCounter(bits);
    e.valid = true;
    index[pc] = victim;
    lru.touch(victim);
    return e;
}

bool
ValuePredictor::confident(Addr load_pc)
{
    const size_t *hit = index.find(load_pc);
    if (!hit)
        return false;
    lru.touch(*hit);
    return entries[*hit].conf.atLeast(thresh);
}

void
ValuePredictor::train(Addr load_pc, bool value_repeated)
{
    Entry &e = lookupOrAllocate(load_pc);
    if (value_repeated)
        e.conf.increment();
    else
        e.conf.reset();   // a wrong value is expensive: lose confidence
}

} // namespace mdp
