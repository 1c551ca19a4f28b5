// Expected-clean counterpart of bad_run_spec_blocking.cc: the
// simulation path sticks to vectors, FlatHashMap point lookups, and
// pure computation; blocking work happens in the caller.

#include <unistd.h>

#include <vector>

#include "base/flat_hash.hh"

struct CleanRunner {
    std::vector<int> specs;
    mdp::FlatHashMap<int, int> specIndex;
    int fd = 0;

    int runSpec(int spec);
    void prepare();
};

int
CleanRunner::runSpec(int spec)
{
    int n = spec;
    for (int s : specs)
        n += s;
    const int *hit = specIndex.find(n);
    return hit ? *hit : n;
}

void
CleanRunner::prepare()
{
    // Outside runSpec a blocking read is allowed.
    char buf[8];
    if (read(fd, buf, sizeof buf) > 0)
        specIndex[buf[0]] = 0;
}
