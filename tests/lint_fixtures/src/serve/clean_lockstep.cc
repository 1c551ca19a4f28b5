// Expected-clean counterpart of bad_lockstep_blocking.cc: the
// simulation path sticks to vectors, point lookups, and pure
// computation; blocking work happens in the completion callback.

#include <unordered_map>
#include <vector>

struct CleanEvaluator {
    std::vector<int> lanes;
    std::unordered_map<int, int> laneIndex;

    int runLane(int lane);
    void prepare();
};

int
CleanEvaluator::runLane(int lane)
{
    int n = lane;
    for (int l : lanes)
        n += l;
    // A point lookup is not an iteration: no diagnostic.
    auto it = laneIndex.find(n);
    return it != laneIndex.end() ? it->second : n;
}

void
CleanEvaluator::prepare()
{
    // Outside runLane (and src/serve/ is not a model directory),
    // unordered iteration is allowed.
    for (auto &kv : laneIndex)
        kv.second = 0;
}
