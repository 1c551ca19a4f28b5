/**
 * @file
 * Harness for the in-tree microbenchmarks under bench/micro/.
 *
 * Each binary times a few kernels over the hot data structures or the
 * timing models themselves.  Kernels are deterministic functions that
 * return a checksum; the checksum appears in the output table (so runs
 * are comparable and the optimizer cannot discard the measured work)
 * and must be identical across repetitions -- that equality is a shape
 * check, making nondeterministic kernels a CI failure, not just noise.
 *
 * Wall time never enters the table (tables stay byte-stable); the best
 * repetition is accumulated as phase "micro_<kernel>" and lands in the
 * standard JSON artifact (MDP_JSON_OUT), where
 * tools/bench_gate.py micro gates per-kernel regressions.
 *
 * MDP_MICRO_REPS: repetitions per kernel (default 3).  The minimum is
 * reported; it is the repetition least disturbed by the scheduler.
 */

#ifndef MDP_BENCH_MICRO_MICRO_COMMON_HH
#define MDP_BENCH_MICRO_MICRO_COMMON_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "bench_common.hh"

namespace mdp
{

/** Fold @p v into the running checksum @p h (order-sensitive). */
inline uint64_t
mixChecksum(uint64_t h, uint64_t v)
{
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/**
 * Collects kernel timings and checksums for one micro binary and
 * emits the standard bench epilogue (table, shape checks, JSON).
 */
class MicroSuite
{
  public:
    MicroSuite(std::string bench_name, std::string ref)
        : name(std::move(bench_name)), paperRef(std::move(ref)),
          reps(static_cast<unsigned>(envLong("MDP_MICRO_REPS", 3))),
          table({"kernel", "reps", "checksum"})
    {
        if (reps == 0)
            reps = 1;
        banner(name, paperRef);
    }

    /**
     * Time @p fn (a deterministic callable returning a uint64_t
     * checksum) over the configured repetitions.
     * @return the kernel's checksum, so callers can shape-check that
     * two implementations of the same computation agree.
     */
    template <typename Fn>
    uint64_t
    kernel(const std::string &kname, Fn &&fn)
    {
        double best = 0.0;
        uint64_t sum0 = 0;
        bool stable = true;
        for (unsigned r = 0; r < reps; ++r) {
            // mdp-lint: allow(nondet-source): report-only timing.
            auto t0 = std::chrono::steady_clock::now();
            const uint64_t sum = fn();
            // mdp-lint: allow(nondet-source): report-only timing.
            auto t1 = std::chrono::steady_clock::now();
            const double secs =
                std::chrono::duration<double>(t1 - t0).count();
            if (r == 0) {
                sum0 = sum;
                best = secs;
            } else {
                stable &= sum == sum0;
                if (secs < best)
                    best = secs;
            }
        }
        addPhaseSeconds("micro_" + kname, best);
        std::printf("%-28s best of %u: %9.3f ms\n", kname.c_str(), reps,
                    best * 1e3);
        sc.check(stable, kname + ": checksum identical across reps");
        char hex[24];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(sum0));
        table.beginRow();
        table.cell(kname);
        table.integer(reps);
        table.cell(hex);
        return sum0;
    }

    /** Extra suite-level shape check (e.g. cross-kernel identity). */
    void check(bool ok, const std::string &what) { sc.check(ok, what); }

    /** Print the table + verdicts and return the process exit code. */
    int
    finish()
    {
        std::printf("\n");
        table.print(std::cout);
        std::printf("\n");
        return finishBench(name, paperRef, sc, table);
    }

  private:
    std::string name;
    std::string paperRef;
    unsigned reps;
    TextTable table;
    ShapeChecks sc;
};

} // namespace mdp

#endif // MDP_BENCH_MICRO_MICRO_COMMON_HH
