// Fixture: idiomatic model code that must lint clean -- seeded
// randomness through base/random.hh, ordered iteration, and point
// lookups in a FlatHashMap, which has no iteration API.
#include <cstdint>
#include <map>

#include "base/flat_hash.hh"
#include "base/random.hh"

namespace mdp
{

FlatHashMap<uint64_t, uint64_t> edgeHits;
std::map<uint64_t, uint64_t> orderedHits;

uint64_t
simulateStep(uint64_t seed)
{
    Pcg32 rng(seed);
    uint64_t roll = rng.below(100);
    if (uint64_t *hits = edgeHits.find(roll))
        ++*hits;
    uint64_t sum = 0;
    for (const auto &[k, v] : orderedHits) // ordered: fine
        sum += k ^ v;
    return sum;
}

} // namespace mdp
