// Fixture: a justified suppression silences the diagnostic on the
// declaration it precedes.
#include <cstdint>
#include <unordered_map>

namespace mdp
{

// mdp-lint: allow(ordered-scope): only summed, in any order.
std::unordered_map<uint64_t, uint64_t> hits;

uint64_t
totalHits()
{
    uint64_t n = 0;
    for (const auto &[k, v] : hits)
        n += v;
    return n;
}

} // namespace mdp
