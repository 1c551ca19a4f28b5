// Fixture: an allow without a justification, or naming a rule that
// does not exist (such as a retired id), is itself a finding and
// suppresses nothing.
#include <cstdint>
#include <unordered_map>

namespace mdp
{

std::unordered_map<uint64_t, uint64_t> hits;

uint64_t
totalHits()
{
    uint64_t n = 0;
    // mdp-lint: allow(ordered-scope) -- expect: lint-allow
    for (const auto &[k, v] : hits)   // expect: ordered-scope
        n += v;
    // mdp-lint: allow(unordered-iter): retired. expect: lint-allow
    for (const auto &[k, v] : hits)   // expect: ordered-scope
        n -= v;
    return n;
}

} // namespace mdp
