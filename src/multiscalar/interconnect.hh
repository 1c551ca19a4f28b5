/**
 * @file
 * Register-forwarding hop counts (ring and 2D mesh).
 *
 * The paper's machine forwards register values over a unidirectional
 * point-to-point ring: a value produced by task p and consumed by task
 * c travels (c - p) hops, one ring hop latency each -- committed
 * producers included, so the distance is task distance, not stage
 * distance.  The manycore scale-out adds a 2D mesh with
 * dimension-ordered (X-then-Y) routing: the value travels the
 * Manhattan distance between the producing and consuming PEs, plus
 * one mesh diameter per full revolution the task distance implies
 * (the mesh analogue of lapping the ring).
 *
 * The hop formulas are inline free functions; the processor
 * dispatches on the topology enum.  They are pure integer functions of
 * the endpoints; the `ordered-scope` lint rule keeps hash containers,
 * and `nondet-source` wall-clock sources, out of this file.
 */

#ifndef MDP_MULTISCALAR_INTERCONNECT_HH
#define MDP_MULTISCALAR_INTERCONNECT_HH

#include <cstdint>

namespace mdp
{

/** Ring hops from producing task @p p to consuming task @p c
 *  (requires p <= c; equal tasks forward locally at zero hops). */
inline uint64_t
ringTaskHops(uint32_t p, uint32_t c)
{
    return c - p;
}

/**
 * Mesh hops from task @p p to task @p c on a @p mx x @p my grid of
 * @p stages PEs (task t runs on PE t % stages, laid out row-major):
 * dimension-ordered XY distance, plus one grid diameter per full
 * revolution of the task distance.
 */
inline uint64_t
meshTaskHops(uint32_t p, uint32_t c, unsigned stages, unsigned mx,
             unsigned my)
{
    const uint32_t dist = c - p;
    const unsigned s1 = p % stages;
    const unsigned s2 = c % stages;
    const unsigned x1 = s1 % mx, y1 = s1 / mx;
    const unsigned x2 = s2 % mx, y2 = s2 / mx;
    const uint64_t dx = x1 > x2 ? x1 - x2 : x2 - x1;
    const uint64_t dy = y1 > y2 ? y1 - y2 : y2 - y1;
    const uint64_t diameter = (mx - 1) + (my - 1);
    return dx + dy + (dist / stages) * diameter;
}

} // namespace mdp

#endif // MDP_MULTISCALAR_INTERCONNECT_HH
