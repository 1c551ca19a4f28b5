#include "multiscalar/memsys.hh"

#include <algorithm>

#include "base/random.hh"

namespace mdp
{

MemorySystem::MemorySystem(const MultiscalarConfig &config)
    : cfg(config)
{
    static_assert(MultiscalarConfig::blockBytes > 0 &&
                      MultiscalarConfig::bankBytes >=
                          MultiscalarConfig::blockBytes,
                  "bad cache geometry");
    linesPerBank = cfg.bankBytes / cfg.blockBytes;
    tags.assign(static_cast<size_t>(cfg.numBanks()) * linesPerBank, 0);
    bankFree.assign(cfg.numBanks(), 0);
}

unsigned
MemorySystem::bankOf(Addr addr) const
{
    return static_cast<unsigned>((addr / cfg.blockBytes) %
                                 cfg.numBanks());
}

uint64_t
MemorySystem::access(Addr addr, uint64_t now, bool is_store)
{
    unsigned bank = bankOf(addr);
    uint64_t line = addr / cfg.blockBytes;
    // Lines are interleaved over the banks.  The in-bank index is
    // hash-folded: synthetic traces place regions at arbitrary large
    // strides, and a plain modulo index would alias whole regions onto
    // the same sets -- a pathology real code layouts don't exhibit.
    unsigned set = static_cast<unsigned>(
        mix64(line / cfg.numBanks()) % linesPerBank);

    uint64_t start = std::max(now, bankFree[bank]);
    // Tag marker: line number + 1 so 0 stays "invalid".
    uint64_t &tag = tags[static_cast<size_t>(bank) * linesPerBank + set];
    bool hit = tag == line + 1;

    uint64_t done;
    if (hit) {
        ++numHits;
        bankFree[bank] = start + 1;
        done = start + (is_store ? 1 : cfg.bankHitLatency);
    } else {
        ++numMisses;
        tag = line + 1;
        uint64_t bus_start = std::max(start, busFree);
        busFree = bus_start + cfg.busBusyPerMiss;
        bankFree[bank] = start + 2;
        done = bus_start + cfg.missPenalty;
        if (is_store)
            done = bus_start + 2;  // write-allocate behind a buffer
    }
    return done;
}

} // namespace mdp
