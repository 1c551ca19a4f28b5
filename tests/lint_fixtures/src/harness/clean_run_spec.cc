// Expected-clean counterpart of bad_run_spec_blocking.cc: the
// simulation path sticks to vectors, point lookups, and pure
// computation; blocking work happens in the caller.

#include <unordered_map>
#include <vector>

struct CleanRunner {
    std::vector<int> specs;
    std::unordered_map<int, int> specIndex;

    int runSpec(int spec);
    void prepare();
};

int
CleanRunner::runSpec(int spec)
{
    int n = spec;
    for (int s : specs)
        n += s;
    // A point lookup is not an iteration: no diagnostic.
    auto it = specIndex.find(n);
    return it != specIndex.end() ? it->second : n;
}

void
CleanRunner::prepare()
{
    // Outside runSpec (and src/harness/ is not a model directory),
    // unordered iteration is allowed.
    for (auto &kv : specIndex)
        kv.second = 0;
}
