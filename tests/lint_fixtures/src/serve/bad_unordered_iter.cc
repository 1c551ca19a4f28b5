// Fixture: hash order leaking into a served batch.  src/serve/ is on
// ordered-scope's model-code row: the order in which a batch walks
// its requests decides the order of its results.  Point lookups are
// fine.
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace mdp::serve
{

std::unordered_map<std::string, uint64_t> pendingById;

std::vector<std::string>
batchOrder()
{
    std::vector<std::string> ids;
    for (const auto &[id, seq] : pendingById) // expect: ordered-scope
        ids.push_back(id);
    return ids;
}

bool
isPending(const std::string &id)
{
    return pendingById.count(id) != 0;
}

} // namespace mdp::serve
