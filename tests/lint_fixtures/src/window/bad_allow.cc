// Fixture: an allow without a justification, or naming a rule that
// does not exist (such as a retired id), is itself a finding and
// suppresses nothing.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

namespace mdp
{

// mdp-lint: allow(ordered-scope) -- expect: lint-allow
std::unordered_map<uint64_t, uint64_t> hits; // expect: ordered-scope
// mdp-lint: allow(unordered-iter): retired. expect: lint-allow
std::unordered_set<uint64_t> seen;           // expect: ordered-scope

} // namespace mdp
