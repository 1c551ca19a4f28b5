// Fixture: iterating a hash container in a model directory.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mdp
{

std::unordered_map<uint64_t, uint64_t> edgeHits;
std::unordered_set<uint64_t> seenPcs;

uint64_t
drainBad()
{
    uint64_t sum = 0;
    for (const auto &[pc, n] : edgeHits)        // expect: ordered-scope
        sum += pc * n;
    for (uint64_t pc : seenPcs)                 // expect: ordered-scope
        sum ^= pc;
    for (auto it = edgeHits.begin(); true;) {   // expect: ordered-scope
        sum += it->second;
        break;
    }
    return sum;
}

uint64_t
lookupsAreFine(uint64_t pc)
{
    // Point lookups and find/end idioms never observe the order.
    auto it = edgeHits.find(pc);
    if (it != edgeHits.end())
        return it->second;
    std::vector<uint64_t> v{1, 2, 3};
    uint64_t s = 0;
    for (uint64_t x : v) // ordered container: fine
        s += x;
    return s;
}

} // namespace mdp
