#include "multiscalar/arb.hh"

#include <algorithm>

namespace mdp
{

SeqNum
Arb::loadExecuted(Addr addr, SeqNum load, uint32_t load_task)
{
    SeqNum version = kNoSeq;
    if (const SeqNum *cv = committedVersion.find(addr))
        version = *cv;

    if (const auto *stores = inflightStores.find(addr)) {
        // Newest in-flight store older than the load; it supersedes
        // the committed version when younger.
        for (SeqNum s : *stores)
            if (s < load && (version == kNoSeq || s > version))
                version = s;
    }

    LoadLanes &lanes = loads[addr];
    if (lanes.seq.capacity() == 0 && !laneFreelist.empty()) {
        lanes = std::move(laneFreelist.back());
        laneFreelist.pop_back();
    }
    lanes.push(load, version, load_task);
    ++numTrackedLoads;
    return version;
}

SeqNum
Arb::findViolator(Addr addr, SeqNum store, uint32_t store_task) const
{
    const auto *les = loads.find(addr);
    if (!les)
        return kNoSeq;
    // The earliest later-task load that read a version older than this
    // store (or memory before any store).
    SeqNum violator = kNoSeq;
    for (size_t i = 0; i < les->size(); ++i) {
        if (les->seq[i] > store && les->task[i] > store_task &&
            (les->version[i] == kNoSeq || les->version[i] < store) &&
            les->seq[i] < violator)
            violator = les->seq[i];
    }
    return violator;
}

SeqNum
Arb::storeExecuted(Addr addr, SeqNum store, uint32_t store_task)
{
    SeqNum violator = findViolator(addr, store, store_task);
    inflightStores[addr].push_back(store);
    return violator;
}

void
Arb::refreshLoadVersion(Addr addr, SeqNum load, SeqNum version)
{
    auto *les = loads.find(addr);
    if (!les)
        return;
    for (size_t i = 0; i < les->size(); ++i) {
        if (les->seq[i] == load &&
            (les->version[i] == kNoSeq || les->version[i] < version)) {
            les->version[i] = version;
        }
    }
}

namespace
{

template <typename T, typename Pred>
void
eraseIf(std::vector<T> &v, Pred pred)
{
    v.erase(std::remove_if(v.begin(), v.end(), pred), v.end());
}

} // namespace

void
Arb::commitLoad(Addr addr, SeqNum load)
{
    auto *les = loads.find(addr);
    if (!les)
        return;
    size_t removed = 0;
    les->eraseSeq(load, removed);
    numTrackedLoads -= removed;
    if (les->empty()) {
        laneFreelist.push_back(std::move(*les));
        loads.erase(addr);
    }
}

void
Arb::commitStore(Addr addr, SeqNum store)
{
    if (auto *stores = inflightStores.find(addr)) {
        eraseIf(*stores, [store](SeqNum s) { return s == store; });
        if (stores->empty())
            inflightStores.erase(addr);
    }
    const SeqNum *cv = committedVersion.find(addr);
    if (!cv || *cv == kNoSeq || *cv < store)
        committedVersion[addr] = store;
}

void
Arb::removeLoad(Addr addr, SeqNum load)
{
    commitLoad(addr, load);    // same bookkeeping: drop the entry
}

void
Arb::removeStore(Addr addr, SeqNum store)
{
    auto *stores = inflightStores.find(addr);
    if (!stores)
        return;
    eraseIf(*stores, [store](SeqNum s) { return s == store; });
    if (stores->empty())
        inflightStores.erase(addr);
}

} // namespace mdp
