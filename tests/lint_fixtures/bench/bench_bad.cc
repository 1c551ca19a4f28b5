// expect: bench-discipline bench-discipline
// (line 1 carries both whole-file findings: no ExperimentRunner -- a
// serial loop over cachedContext() is not enough -- and no
// finishBench epilogue)
#include <cstdio>

namespace mdp
{
struct Workload {
    int generate(double) { return 0; }
};
struct WorkloadContext {
    explicit WorkloadContext(int) {}
    int run() const { return 0; }
};
const WorkloadContext &cachedContext(const char *name, double scale);
} // namespace mdp

int
main()
{
    mdp::Workload w;
    mdp::WorkloadContext ctx(w.generate(1.0)); // expect: bench-discipline
    for (const char *name : {"compress", "gcc"})
        std::printf("%s %d\n", name,
                    mdp::cachedContext(name, 1.0).run());
    std::puts("rows...");
    return 0;
}
