// Fixture: hash containers in a model directory.  The declarations
// fire, so no walk over them (range-for, iterator, equal_range) can
// exist to leak their unspecified order; the walks below add nothing.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mdp
{

std::unordered_map<uint64_t, uint64_t> edgeHits; // expect: ordered-scope
std::unordered_set<uint64_t> seenPcs;            // expect: ordered-scope

uint64_t
drainBad()
{
    uint64_t sum = 0;
    for (const auto &[pc, n] : edgeHits)
        sum += pc * n;
    for (uint64_t pc : seenPcs)
        sum ^= pc;
    for (auto it = edgeHits.begin(); true;) {
        sum += it->second;
        break;
    }
    return sum;
}

uint64_t
orderedIsFine()
{
    std::vector<uint64_t> v{1, 2, 3};
    uint64_t s = 0;
    for (uint64_t x : v) // ordered container: fine
        s += x;
    return s;
}

} // namespace mdp
