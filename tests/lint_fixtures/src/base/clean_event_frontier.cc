// Fixture: the shapes ordered-scope wants -- vectors, explicit
// (t, id) ordering, no hash containers, no clocks.  Must lint clean.
#include <algorithm>
#include <cstdint>
#include <vector>

namespace mdp
{

struct CleanFrontier
{
    std::vector<uint64_t> stored;
    std::vector<std::pair<uint64_t, uint32_t>> heap;

    void
    schedule(uint32_t id, uint64_t t)
    {
        stored[id] = t;
        heap.emplace_back(t, id);
        std::push_heap(heap.begin(), heap.end(),
                       std::greater<std::pair<uint64_t, uint32_t>>());
    }

    uint64_t
    earliest() const
    {
        return heap.empty() ? UINT64_MAX : heap.front().first;
    }
};

} // namespace mdp
