/**
 * @file
 * Exact memory-dependence oracle over a trace.
 *
 * For every load it computes the most recent preceding store to the same
 * address (the load's true producer).  The oracle is what the idealized
 * policies (PSYNC, WAIT-with-perfect-prediction) consult, what the
 * "unrealistic OoO" window model of section 5 counts with, and what the
 * Multiscalar ARB uses to attribute violations.
 *
 * State is kept per load, not per op: one producer slot per load, in
 * loads() order, reached from a sequence number through a rank over a
 * one-bit-per-op load map (about 0.19 B per op).
 */

#ifndef MDP_TRACE_DEP_ORACLE_HH
#define MDP_TRACE_DEP_ORACLE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "trace/trace.hh"

namespace mdp
{

/**
 * Precomputed last-writer information for all loads of a trace.
 */
class DepOracle
{
  public:
    /** Build the oracle; O(n) expected over the trace. */
    explicit DepOracle(const TraceView &trace);

    /**
     * @return the sequence number of the most recent store before @p
     * load_seq writing the load's address, or kNoSeq if the location
     * was never previously written or @p load_seq is not a load.
     */
    SeqNum
    producer(SeqNum load_seq) const
    {
        const uint64_t word = loadBits[load_seq / 64];
        const uint64_t bit = uint64_t{1} << (load_seq % 64);
        if (!(word & bit))
            return kNoSeq;
        return prods[rankBase[load_seq / 64] +
                     std::popcount(word & (bit - 1))];
    }

    /** @return true if the load has a producer store in the trace. */
    bool hasProducer(SeqNum load_seq) const
    {
        return producer(load_seq) != kNoSeq;
    }

    /**
     * @return true if the load's producer lies within @p window
     * dynamic instructions before it (the unrealistic-OoO criterion:
     * such a load would always mis-speculate in a perfect continuous
     * window of that size).
     */
    bool
    producerWithin(SeqNum load_seq, uint32_t window) const
    {
        SeqNum p = producer(load_seq);
        return p != kNoSeq && load_seq - p < window;
    }

    /**
     * @return true if the load's producer is in a different (earlier)
     * task -- an inter-task dependence, the only kind Multiscalar
     * speculates on.
     */
    bool interTask(SeqNum load_seq) const;

    /** Dependence distance in tasks (0 when intra-task / no producer). */
    uint32_t taskDistance(SeqNum load_seq) const;

    /** All loads of the trace, in program order. */
    const std::vector<SeqNum> &loads() const { return loadSeqs; }

    /** All stores of the trace, in program order. */
    const std::vector<SeqNum> &stores() const { return storeSeqs; }

    /** Each load's producer (or kNoSeq), parallel to loads(): a walk
     *  over the loads reads it by index instead of by rank. */
    const std::vector<SeqNum> &producers() const { return prods; }

  private:
    TraceView trc;
    /** One bit per op, set at loads. */
    std::vector<uint64_t> loadBits;
    /** Loads before each 64-op word of loadBits. */
    std::vector<uint32_t> rankBase;
    std::vector<SeqNum> loadSeqs;
    std::vector<SeqNum> storeSeqs;
    std::vector<SeqNum> prods;
};

} // namespace mdp

#endif // MDP_TRACE_DEP_ORACLE_HH
