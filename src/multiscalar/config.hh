/**
 * @file
 * Configuration and result types of the Multiscalar timing model.
 *
 * Defaults follow section 5.2: 4 or 8 processing units, each a 2-way
 * out-of-order issue pipeline with the functional-unit latencies of
 * Table 2, a unidirectional point-to-point ring (1 cycle/hop), twice as
 * many interleaved data-cache banks as stages (8 KB direct-mapped each,
 * 64-byte blocks, 2-cycle hits, 10+3-cycle miss penalty) behind a
 * shared split-transaction bus.
 */

#ifndef MDP_MULTISCALAR_CONFIG_HH
#define MDP_MULTISCALAR_CONFIG_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mdp/config.hh"
#include "mdp/sync_unit.hh"

namespace mdp
{

/**
 * A statically-known store->load dependence edge (section 6: the
 * compiler could expose unambiguous dependences to the MDPT through
 * ISA extensions).  Preloaded edges start armed, skipping the
 * mis-speculation training the hardware otherwise needs.
 */
struct StaticEdge
{
    Addr ldpc = 0;
    Addr stpc = 0;
    uint32_t dist = 1;
    Addr storeTaskPc = 0;

    bool operator==(const StaticEdge &) const = default;
};

/**
 * Register-forwarding topology between processing units.  Ring is the
 * paper's unidirectional point-to-point ring and the default; Mesh is
 * the manycore scale-out configuration (2D grid, dimension-ordered XY
 * routing, see interconnect.hh).
 */
enum class Topology { Ring, Mesh };

/**
 * Parameters of one simulated Multiscalar processor.  The per-stage
 * pipeline and the memory system are fixed at the section 5.2 machine
 * (the static constants); the rest is settable.
 */
struct MultiscalarConfig
{
    /** Per-stage issue (and fetch) width. */
    static constexpr unsigned issueWidth = 2;
    /** Per-stage scheduling window (ops). */
    static constexpr unsigned stageWindow = 16;

    // Functional units per stage (Table 2 mix).
    static constexpr unsigned simpleIntFUs = 2;
    static constexpr unsigned complexIntFUs = 1;
    static constexpr unsigned fpFUs = 1;
    static constexpr unsigned branchFUs = 1;
    static constexpr unsigned memPorts = 1;

    // Memory system: banksPerStage * numStages data banks of bankBytes
    // each; a miss holds the bus busBusyPerMiss cycles and completes
    // missPenalty (10 + 3) cycles after it gets the bus.
    static constexpr unsigned banksPerStage = 2;
    static constexpr unsigned bankBytes = 8 * 1024;
    static constexpr unsigned blockBytes = 64;
    static constexpr unsigned bankHitLatency = 2;
    static constexpr unsigned missPenalty = 13;
    static constexpr unsigned busBusyPerMiss = 4;

    unsigned numStages = 4;        ///< processing units

    unsigned ringHopLatency = 1;   ///< cycles per hop, adjacent stages

    // Manycore scale-out (PR 10).
    Topology topology = Topology::Ring;
    /**
     * Mesh grid dimensions; meshX * meshY must equal numStages.  0
     * auto-factors the most nearly square grid (validated fatal when
     * numStages cannot be factored as requested).
     */
    unsigned meshX = 0;
    unsigned meshY = 0;

    unsigned squashPenalty = 5;    ///< restart delay after a squash
    unsigned mispredictPenalty = 6; ///< sequencer recovery delay

    // Speculation.
    /** Registry key of the dependence policy (mdp/dep_policy.hh),
     *  case-insensitive: a paper policy (never, always, wait, psync,
     *  sync, esync, vsync) or a descendant (storeset, counter,
     *  vassist). */
    std::string policyName = "always";

    SyncUnitConfig sync;           ///< used by predictor-backed policies
    SyncOrganization organization = SyncOrganization::Combined;

    /** Probability the sequencer mispredicts a task's successor; the
     *  harness sets this from the workload profile. */
    double taskMispredictRate = 0.0;

    /** Seed for deterministic control-misprediction draws. */
    uint64_t seed = 0x5eed;

    /** Safety cap; 0 derives a generous bound from the trace length. */
    uint64_t maxCycles = 0;

    /** Record (load PC, store PC) of every mis-speculation (needed by
     *  the DDC studies of Table 7). */
    bool logMisSpeculations = false;

    /** Statically-known dependences preloaded into the MDPT before
     *  execution (section 6, compiler-exposed synchronization). */
    std::vector<StaticEdge> preloadEdges;

    /** Derived: number of data banks. */
    unsigned numBanks() const { return banksPerStage * numStages; }

    /** Every settable field; a new field joins by construction. */
    bool operator==(const MultiscalarConfig &) const = default;
};

/** Largest supported machine (the manycore sweeps stop here). */
constexpr unsigned kMaxStages = 1024;

/**
 * Validate stage/bank/mesh parameters, mdp_fatal (exit 1) with
 * a precise message on the first violation.  Every model entry point
 * runs this (the MultiscalarProcessor constructor), so a bad config
 * can never silently simulate.
 */
void validateMultiscalarConfig(const MultiscalarConfig &cfg);

/**
 * Resolved mesh dimensions: the configured meshX/meshY with zeros
 * auto-factored into the most nearly square grid whose product is
 * numStages.  Fatal when the request cannot factor.
 */
std::pair<unsigned, unsigned> resolveMeshDims(
    const MultiscalarConfig &cfg);

/** Dependence-prediction breakdown in the format of Table 8. */
struct PredBreakdown
{
    uint64_t nn = 0;   ///< predicted no dependence, none existed
    uint64_t ny = 0;   ///< predicted no dependence, mis-speculated
    uint64_t yn = 0;   ///< predicted dependence, none (false prediction)
    uint64_t yy = 0;   ///< predicted dependence, dependence existed

    uint64_t total() const { return nn + ny + yn + yy; }
};

/** Results of one simulation run. */
struct SimResult
{
    uint64_t cycles = 0;

    /**
     * Skip accounting: cycles the loop actually executed vs. cycles
     * it jumped over.  Invariant: cyclesSimulated + cyclesSkipped ==
     * cycles.
     */
    uint64_t cyclesSimulated = 0;
    uint64_t cyclesSkipped = 0;
    uint64_t committedOps = 0;
    uint64_t committedLoads = 0;
    uint64_t committedStores = 0;
    uint64_t committedTasks = 0;

    /** The run hit the cycle cap: every count above is partial. */
    bool truncated = false;

    uint64_t misSpeculations = 0;  ///< dependence violations detected
    uint64_t squashedOps = 0;      ///< issued work thrown away
    uint64_t controlStalls = 0;    ///< sequencer mispredict events

    uint64_t loadsBlockedSync = 0;     ///< waits imposed by the MDST
    uint64_t loadsBlockedFrontier = 0; ///< waits for store resolution
    uint64_t frontierReleases = 0;     ///< incomplete synchronizations
    uint64_t syncWaitCycles = 0;       ///< cycles loads spent MDST-blocked
    uint64_t signalWaitCycles = 0;     ///< subset ended by a signal
    uint64_t frontierWaitCycles = 0;   ///< subset ended by the frontier

    /**
     * Register-forwarding traffic: cross-task source operands counted
     * once per issue event, and the interconnect hops each one
     * traveled (ring: task distance; mesh: XY distance plus wrap
     * revolutions).
     */
    uint64_t regForwards = 0;
    uint64_t regForwardHops = 0;

    /**
     * Scheduling-loop occupancy: stage visits actually performed vs.
     * stage slots (numStages per simulated cycle).  The per-PE
     * frontier exists to make visits << slots.
     */
    uint64_t stageVisits = 0;
    uint64_t stageSlots = 0;

    uint64_t valuePredUses = 0;    ///< loads that consumed a prediction
    uint64_t valuePredHits = 0;    ///< benign violations absorbed
    uint64_t valuePredMisses = 0;  ///< wrong values -> squash

    PredBreakdown pred;            ///< Table 8 accounting
    SyncStats syncStats;           ///< structure-level counters

    /** (load PC, store PC) per mis-speculation, if logging enabled. */
    std::vector<std::pair<Addr, Addr>> misspecLog;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(committedOps) / cycles : 0.0;
    }

    /** Mean interconnect hops per forwarded register value. */
    double
    avgForwardHops() const
    {
        return regForwards
            ? static_cast<double>(regForwardHops) / regForwards
            : 0.0;
    }

    /** Mis-speculations per committed load (Table 9 metric). */
    double
    misspecPerLoad() const
    {
        return committedLoads
            ? static_cast<double>(misSpeculations) / committedLoads
            : 0.0;
    }
};

} // namespace mdp

#endif // MDP_MULTISCALAR_CONFIG_HH
