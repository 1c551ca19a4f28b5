/**
 * @file
 * Manycore scale-out workloads: trace generators whose task graphs
 * exercise machines far wider than the paper's 4/8-stage Multiscalar
 * configurations.  Unlike the profile-driven SPEC stand-ins
 * (workloads/suites.hh), these are shaped by *parallel-kernel*
 * phenomenology -- frontier expansion, row-partitioned linear
 * algebra, unbalanced recursion -- where what matters is how task
 * width, dependence distance, and load imbalance interact with a
 * 1024-PE ring or mesh.
 *
 * All three generators are pure functions of (scale, seed, num_pes):
 * the trace for a given argument triple is byte-stable, so bench
 * output built on them is deterministic.  num_pes shapes the task
 * graph (frontier width, row-block count, fan-out) -- it is NOT
 * required to match the simulated machine's stage count, but the
 * scaling bench sweeps them together.
 */

#ifndef MDP_WORKLOADS_MANYCORE_HH
#define MDP_WORKLOADS_MANYCORE_HH

#include <cstdint>

#include "trace/trace.hh"

namespace mdp
{

/**
 * Level-synchronous BFS frontier expansion.  Each level is a band of
 * ~num_pes visit tasks; a visit loads the node record its (randomly
 * chosen) parent in the previous level stored, walks an edge list,
 * and stores its own record.  Cross-task dependences thus span up to
 * a full frontier width, and a shared next-frontier cursor gives a
 * small set of genuinely conflicting stores that the dependence
 * policies must cope with.
 */
Trace makeBfsFrontierTrace(double scale, uint64_t seed,
                           unsigned num_pes);

/**
 * Row-split SpMV (y = A*x).  One task per row block; rows draw a
 * skewed nonzero count, each nonzero is an x-vector load (read-only,
 * no producer) feeding an FP multiply-accumulate chain, and the row
 * result is stored to a per-row slot.  A sparse reduction tail makes
 * some tasks read a neighbor block's partial result, so the trace is
 * mostly embarrassingly parallel with occasional short-distance
 * memory dependences -- the frontier's best case (all PEs active).
 */
Trace makeSpmvRowSplitTrace(double scale, uint64_t seed,
                            unsigned num_pes);

/**
 * UTS-style unbalanced recursion.  Task sizes follow a geometric
 * cascade (a few huge subtrees, many tiny ones) and every task loads
 * the node record stored by its parent task at an arbitrary earlier
 * position in the spawn order.  The imbalance leaves most PEs idle
 * while stragglers run -- the case where per-PE event frontiers pay
 * off most.
 */
Trace makeUtsTrace(double scale, uint64_t seed, unsigned num_pes);

} // namespace mdp

#endif // MDP_WORKLOADS_MANYCORE_HH
