#include "mdp/parked_loads.hh"

namespace mdp
{

ParkedLoads::ParkedLoads(OpLanes &op_lanes, DepSynchronizer *sync_unit,
                         size_t window_cap)
    : lanes(op_lanes), unit(sync_unit)
{
    frontierList.reserve(window_cap);
    syncList.reserve(window_cap);
    producerWaits.reserve(window_cap);
    wakeups.reserve(window_cap);
}

SeqNum
ParkedLoads::minOf(const std::vector<SeqNum> &list)
{
    SeqNum m = kNoSeq;
    for (SeqNum s : list)
        m = std::min(m, s);
    return m;
}

bool
ParkedLoads::park(SeqNum seq, const LoadDecision &d)
{
    switch (d.action) {
      case LoadAction::BlockFrontier:
        lanes.set(seq, kBlockedFrontier);
        frontierList.push_back(seq);
        frontierMin = std::min(frontierMin, seq);
        return true;

      case LoadAction::BlockProducer:
        lanes.set(seq, kBlockedProducer);
        producerWaits.emplace_back(d.producer, seq);
        return true;

      case LoadAction::BlockSync:
        lanes.set(seq, kBlockedSync);
        syncList.push_back(seq);
        syncMin = std::min(syncMin, seq);
        syncPushed = true;
        return true;

      case LoadAction::IssueValuePredicted:
      case LoadAction::Issue:
        break;
    }
    return false;
}

void
ParkedLoads::squash(SeqNum from)
{
    auto squashed = [from](SeqNum s) { return s >= from; };
    std::erase_if(frontierList, squashed);
    std::erase_if(syncList, squashed);
    frontierMin = minOf(frontierList);
    syncMin = minOf(syncList);
    // A producer is older than its loads, so this drops every wait on
    // a squashed producer too.
    std::erase_if(producerWaits, [from](const auto &w) {
        return w.second >= from;
    });
    dirty = true;

    if (unit)
        unit->squash(from, from);
}

} // namespace mdp
