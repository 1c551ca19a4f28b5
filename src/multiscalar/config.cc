/**
 * @file
 * Config validation and mesh-topology resolution.
 *
 * The model used to accept any parameter values silently -- a zero
 * stage count crashed deep inside the ring arithmetic, a 3x5 mesh
 * over 16 stages just produced nonsense latencies.  Every check here
 * fatals (exit 1) with the offending value spelled out, and runs from
 * the MultiscalarProcessor constructor so no entry point can bypass
 * it.
 */

#include "multiscalar/config.hh"

#include "base/logging.hh"

namespace mdp
{

std::pair<unsigned, unsigned>
resolveMeshDims(const MultiscalarConfig &cfg)
{
    unsigned n = cfg.numStages;
    unsigned mx = cfg.meshX;
    unsigned my = cfg.meshY;
    if (mx == 0 && my == 0) {
        // Most nearly square factorization: the largest divisor of n
        // not exceeding sqrt(n) (deterministic integer search).
        unsigned best = 1;
        for (unsigned d = 1; d * d <= n; ++d) {
            if (n % d == 0)
                best = d;
        }
        mx = n / best;
        my = best;
    } else if (mx == 0) {
        if (my == 0 || n % my != 0) {
            mdp_fatal("meshY=%u does not divide numStages=%u", my, n);
        }
        mx = n / my;
    } else if (my == 0) {
        if (n % mx != 0)
            mdp_fatal("meshX=%u does not divide numStages=%u", mx, n);
        my = n / mx;
    }
    if (mx * my != n) {
        mdp_fatal("mesh %ux%u does not factor numStages=%u (need "
                  "meshX * meshY == numStages)",
                  mx, my, n);
    }
    return {mx, my};
}

void
validateMultiscalarConfig(const MultiscalarConfig &cfg)
{
    if (cfg.numStages < 1 || cfg.numStages > kMaxStages) {
        mdp_fatal("numStages=%u out of range [1, %u]", cfg.numStages,
                  kMaxStages);
    }
    if (cfg.topology == Topology::Mesh)
        resolveMeshDims(cfg);   // fatals on a non-factoring grid
}

} // namespace mdp
