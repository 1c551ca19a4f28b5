// Expected-clean: the repo convention for the SoA lanes.  The raw
// lane pointers are only ever passed whole to kernel calls (no
// indexing, no arithmetic); single ops go through the accessors.
#include <cstdint>
#include <vector>

namespace mdp
{

struct CleanLanes {
    std::vector<uint64_t> doneLane;
    std::vector<uint16_t> flagsLane;

    uint64_t done(size_t i) const { return doneLane[i]; }
    const uint64_t *doneData() const { return doneLane.data(); }
    const uint16_t *flagsData() const { return flagsLane.data(); }
};

uint64_t fakeKernel(const uint64_t *done, const uint16_t *flags,
                    size_t begin, size_t end);

struct CleanStageModel {
    CleanLanes state;

    uint64_t
    nextCompletion(size_t begin, size_t end) const
    {
        return fakeKernel(state.doneData(), state.flagsData(), begin,
                          end);
    }

    uint64_t firstDone() const { return state.done(0); }
};

} // namespace mdp
