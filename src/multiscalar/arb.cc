#include "multiscalar/arb.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mdp
{

void
Arb::push(uint32_t &head, SeqNum seq, SeqNum version, uint32_t task)
{
    uint32_t i = freeNodes;
    if (i != kNil) {
        freeNodes = pool[i].next;
        pool[i] = Node{seq, version, task, head};
    } else {
        i = static_cast<uint32_t>(pool.size());
        pool.push_back(Node{seq, version, task, head});
    }
    head = i;
}

size_t
Arb::unlink(uint32_t &head, SeqNum seq)
{
    size_t removed = 0;
    uint32_t *link = &head;
    while (*link != kNil) {
        const uint32_t i = *link;
        Node &n = pool[i];
        if (n.seq != seq) {
            link = &n.next;
            continue;
        }
        *link = n.next;
        n.next = freeNodes;
        freeNodes = i;
        ++removed;
    }
    return removed;
}

SeqNum
Arb::loadExecuted(Addr addr, SeqNum load, uint32_t load_task)
{
    // Newest in-flight store older than the load.
    SeqNum version = kNoSeq;
    Line &line = lines[addr];
    for (uint32_t i = line.stores; i != kNil; i = pool[i].next) {
        const SeqNum s = pool[i].seq;
        if (s < load && (version == kNoSeq || s > version))
            version = s;
    }

    push(line.loads, load, version, load_task);
    ++numTrackedLoads;
    return version;
}

SeqNum
Arb::violatorOn(const Line &line, SeqNum store, uint32_t store_task) const
{
    // The earliest later-task load that read a version older than this
    // store (or memory before any store).
    SeqNum violator = kNoSeq;
    for (uint32_t i = line.loads; i != kNil; i = pool[i].next) {
        const Node &n = pool[i];
        if (n.seq > store && n.task > store_task &&
            (n.version == kNoSeq || n.version < store) && n.seq < violator)
            violator = n.seq;
    }
    return violator;
}

SeqNum
Arb::findViolator(Addr addr, SeqNum store, uint32_t store_task) const
{
    const Line *line = lines.find(addr);
    return line ? violatorOn(*line, store, store_task) : kNoSeq;
}

SeqNum
Arb::storeExecuted(Addr addr, SeqNum store, uint32_t store_task)
{
    if (store < newestCommitted)
        mdp_fatal("store %u executes after the newer store %u committed",
                  store, newestCommitted);
    Line &line = lines[addr];
    SeqNum violator = violatorOn(line, store, store_task);
    push(line.stores, store, kNoSeq, 0);
    return violator;
}

void
Arb::refreshLoadVersion(Addr addr, SeqNum load, SeqNum version)
{
    Line *line = lines.find(addr);
    if (!line)
        return;
    for (uint32_t i = line->loads; i != kNil; i = pool[i].next) {
        Node &n = pool[i];
        if (n.seq == load && (n.version == kNoSeq || n.version < version))
            n.version = version;
    }
}

void
Arb::commitLoad(Addr addr, SeqNum load)
{
    Line *line = lines.find(addr);
    if (!line)
        return;
    numTrackedLoads -= unlink(line->loads, load);
    if (line->empty())
        lines.erase(addr);
}

void
Arb::commitStore(Addr addr, SeqNum store)
{
    removeStore(addr, store);
    newestCommitted = std::max(newestCommitted, store);
}

void
Arb::removeLoad(Addr addr, SeqNum load)
{
    commitLoad(addr, load);    // same bookkeeping: drop the entry
}

void
Arb::removeStore(Addr addr, SeqNum store)
{
    Line *line = lines.find(addr);
    if (!line)
        return;
    unlink(line->stores, store);
    if (line->empty())
        lines.erase(addr);
}

} // namespace mdp
