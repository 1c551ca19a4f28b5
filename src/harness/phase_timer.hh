/**
 * @file
 * Process-wide wall-clock accounting of coarse experiment phases.
 *
 * The benches report how their wall time splits between acquiring
 * workload artifacts (trace generation vs. trace-cache load, oracle
 * and task-set construction) and simulating.  Each phase accumulates
 * across threads and workloads; finishBench() folds the totals into
 * the JSON artifact so CI can track the cold/warm trajectory per PR.
 */

#ifndef MDP_HARNESS_PHASE_TIMER_HH
#define MDP_HARNESS_PHASE_TIMER_HH

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace mdp
{

/** Add @p seconds to @p phase's total.  Thread-safe. */
void addPhaseSeconds(const std::string &phase, double seconds);

/**
 * All accumulated (phase, seconds), sorted by phase name.
 *
 * Accumulation contract: totals are process-wide and monotone -- they
 * are NEVER reset implicitly, not even when an ExperimentRunner is
 * constructed or reused.  A process that runs several experiments and
 * calls finishBench() once therefore reports the union of all its
 * phases, which is exactly what the bench artifacts want.  Callers
 * that need per-section deltas must take a snapshot before the section
 * and subtract via phaseSecondsSince(); only tests, or a process
 * re-reporting from scratch (mdp_tables before each table), may call
 * resetPhaseSeconds().
 */
std::vector<std::pair<std::string, double>> phaseSeconds();

/**
 * Per-phase seconds accumulated since @p snapshot (an earlier
 * phaseSeconds() result).  Phases whose delta is zero are omitted.
 */
std::vector<std::pair<std::string, double>> phaseSecondsSince(
    const std::vector<std::pair<std::string, double>> &snapshot);

/** Reset all totals (tests and fresh re-reports only; see above). */
void resetPhaseSeconds();

/** RAII: accumulates the enclosed scope's wall time into a phase. */
class ScopedPhase
{
  public:
    explicit ScopedPhase(std::string phase)
        : name(std::move(phase)),
          // mdp-lint: allow(nondet-source): report-only wall clock.
          start(std::chrono::steady_clock::now())
    {}

    ~ScopedPhase()
    {
        std::chrono::duration<double> dt =
            // mdp-lint: allow(nondet-source): report-only timing.
            std::chrono::steady_clock::now() - start;
        addPhaseSeconds(name, dt.count());
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    std::string name;
    // mdp-lint: allow(nondet-source): report-only timing state.
    std::chrono::steady_clock::time_point start;
};

} // namespace mdp

#endif // MDP_HARNESS_PHASE_TIMER_HH
