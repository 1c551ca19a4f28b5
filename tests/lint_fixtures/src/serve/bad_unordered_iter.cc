// Fixture: hash order leaking into a served batch.  The order in which
// a batch walks its requests decides the order of its results, and
// src/serve/ is in src/, where ordered-scope bans the std hash
// containers: the declaration fires, not the walk.
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace mdp::serve
{

std::unordered_map<std::string, uint64_t> pendingById; // expect: ordered-scope

std::vector<std::string>
batchOrder()
{
    std::vector<std::string> ids;
    for (const auto &[id, seq] : pendingById)
        ids.push_back(id);
    return ids;
}

} // namespace mdp::serve
