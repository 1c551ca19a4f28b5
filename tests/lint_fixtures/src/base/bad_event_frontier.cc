// Fixture: hash containers and wall-clock reads inside the manycore
// scheduler layer (the hash container is ordered-scope's and the clock
// read nondet-source's, as anywhere in src/).
#include <chrono>
#include <cstdint>
#include <unordered_map>

namespace mdp
{

struct BadFrontier
{
    std::unordered_map<uint32_t, uint64_t> parked; // expect: ordered-scope

    void
    schedule(uint32_t id, uint64_t t)
    {
        parked[id] = t;
    }

    uint64_t
    jitterSeed() const
    {
        auto now = std::chrono::steady_clock::now(); // expect: nondet-source
        return static_cast<uint64_t>(
            now.time_since_epoch().count());
    }
};

} // namespace mdp
