// expect: bench-discipline
// (line 1 carries the whole-file finding: a table that never runs its
// cells on an ExperimentRunner -- a serial loop over cachedContext()
// is not enough)
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
struct TextTable {};
struct ShapeChecks {};
} // namespace mdp

mdp::TextTable
badTable(mdp::ShapeChecks &)
{
    mdp::Workload w;
    mdp::WorkloadContext ctx(w.generate(1.0)); // expect: bench-discipline
    for (const char *name : {"compress", "gcc"})
        std::printf("%s %d\n", name,
                    mdp::cachedContext(name, 1.0).run());
    std::puts("rows...");
    return {};
}
