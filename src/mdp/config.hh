/**
 * @file
 * Configuration of the dependence prediction/synchronization hardware.
 */

#ifndef MDP_MDP_CONFIG_HH
#define MDP_MDP_CONFIG_HH

#include <cstddef>
#include <cstdint>

namespace mdp
{

/** Which prediction field the MDPT entries carry (sections 4.4.1, 5.5). */
enum class PredictorKind
{
    /**
     * No prediction field: any matching entry forces synchronization
     * (the "optional predictor omitted" baseline of section 4.1).
     */
    AlwaysSync,

    /** 3-bit up/down saturating counter with a threshold (SYNC). */
    Counter,

    /**
     * Counter plus the PC of the task that issued the store; sync is
     * enforced only when the task at the recorded distance matches
     * (ESYNC).
     */
    PathCounter,
};

/** How dynamic instances of a static dependence edge are tagged (§3). */
enum class TagScheme
{
    /**
     * Dependence-distance tags: instance numbers (approximated by task
     * / stage identifiers in Multiscalar); a store at instance i
     * signals the load at instance i + DIST.  The paper's choice.
     */
    Distance,

    /**
     * Address tags: the accessed data address identifies the instance.
     * Evaluated as ablation A3.
     */
    Address,
};

/**
 * Parameters of the MDPT/MDST pair (or the combined structure).
 * Defaults follow section 5.5: 64 entries, 3-bit counters, threshold 3,
 * one synchronization slot per stage.
 */
struct SyncUnitConfig
{
    size_t numEntries = 64;

    /** Synchronization slots carried per prediction entry (combined
     *  organization); equals the number of stages in section 5.5. */
    unsigned slotsPerEntry = 8;

    /** Size of the standalone MDST pool (split organization). */
    size_t mdstEntries = 64;

    unsigned counterBits = 3;
    unsigned threshold = 3;

    /** Counter value given to a newly allocated entry.  One below the
     *  threshold arms an edge on its *second* mis-speculation within
     *  the entry's lifetime: stable edges arm almost immediately,
     *  while edges that thrash in and out of a capacity-stressed table
     *  (fpppp, su2cor) never arm and fall back to blind speculation
     *  instead of paying frontier-length false waits. */
    unsigned initialCount = 2;

    /** On repeat mis-speculation: saturate the counter instead of a
     *  single increment (ablation knob; the paper's counter is +/-1). */
    bool saturateOnMisspec = false;

    /** How many counter steps a frontier release (a false dependence
     *  prediction) subtracts.  False waits are far more expensive than
     *  successful synchronizations are valuable (the load stalls for
     *  the whole store frontier), so the update is asymmetric: edges
     *  that frequently fail to signal decay back to speculation. */
    unsigned frontierReleasePenalty = 2;

    PredictorKind predictor = PredictorKind::Counter;
    TagScheme tags = TagScheme::Distance;

    /** Copies in the distributed organization (section 4.4.5);
     *  normally the number of processing stages. */
    unsigned numCopies = 8;

    // -- descendant-predictor parameters (mdp/store_set.hh,
    //    mdp/load_wait.hh); ignored by the paper's MDPT/MDST units --

    /** Store-set identifier table entries (storeset policy). */
    size_t ssitEntries = 1024;

    /** Last-fetched-store table entries == maximum live store sets. */
    size_t lfstEntries = 128;

    /** Cyclic-clearing period of the store-set tables, in table events
     *  (load + store checks); 0 disables clearing. */
    uint64_t ssitClearInterval = 100000;

    /** Load-wait counter-table entries (counter policy). */
    size_t loadWaitEntries = 1024;

    /** Width of each load-wait counter. */
    unsigned loadWaitBits = 2;

    /** Counter value at which a load is predicted to violate. */
    unsigned loadWaitThreshold = 1;

    /** Periodic zeroing of the load-wait counters, in load checks;
     *  0 disables clearing. */
    uint64_t loadWaitClearInterval = 100000;

    bool operator==(const SyncUnitConfig &) const = default;
};

} // namespace mdp

#endif // MDP_MDP_CONFIG_HH
