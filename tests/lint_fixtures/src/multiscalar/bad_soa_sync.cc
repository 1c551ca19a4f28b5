// Fixture: the soa-sync rule.  Raw index arithmetic on the lane
// escape hatches bypasses the OpLanes invariants (only src/base/ may
// do it).
#include <cstdint>
#include <vector>

namespace mdp
{

struct FakeLanes {
    std::vector<uint64_t> doneLane;
    std::vector<uint16_t> flagsLane;

    const uint64_t *doneData() const { return doneLane.data(); }
    const uint16_t *flagsData() const { return flagsLane.data(); }
};

struct FakeStageModel {
    FakeLanes state;

    uint64_t
    peekDone(size_t i) const
    {
        return state.doneData()[i]; // expect: soa-sync
    }

    const uint16_t *
    flagsTail(size_t base) const
    {
        return state.flagsData() + base; // expect: soa-sync
    }
};

} // namespace mdp
