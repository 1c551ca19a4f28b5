// Fixture: a justified suppression silences the diagnostic, and
// order-independent reads of unordered containers are fine.
#include <cstdint>
#include <unordered_map>

namespace mdp
{

std::unordered_map<uint64_t, uint64_t> hits;

uint64_t
totalHits()
{
    uint64_t n = 0;
    // mdp-lint: allow(ordered-scope): order-independent sum.
    for (const auto &[k, v] : hits)
        n += v;
    return n;
}

} // namespace mdp
