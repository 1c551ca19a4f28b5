/**
 * @file
 * LRU ordering for fully-associative table replacement: an intrusive
 * doubly-linked recency list, so whole-pool victim selection is O(1)
 * (the MDPT allocates on every recorded mis-speculation, which made
 * an O(n) stamp scan a measured hot spot at large table sizes).
 *
 * The list reproduces the stamp scan's choice exactly: entries start
 * in index order (so never-touched entries win lowest-index-first,
 * like the first-minimal-stamp scan), and each touch moves an entry
 * to the most-recent end.
 */

#ifndef MDP_BASE_LRU_HH
#define MDP_BASE_LRU_HH

#include <cstddef>
#include <vector>

#include "base/logging.hh"

namespace mdp
{

/**
 * Recency bookkeeping over a fixed pool of entries identified by index.
 */
class LruState
{
  public:
    explicit LruState(size_t num_entries)
        : prev(num_entries, kNil), next(num_entries, kNil)
    {
        for (size_t i = 0; i < num_entries; ++i)
            linkBack(i);
    }

    /** Mark an entry as most recently used. */
    void
    touch(size_t index)
    {
        mdp_assert(index < prev.size(), "LruState::touch out of range");
        if (index != tail) {
            unlink(index);
            linkBack(index);
        }
    }

    /** The least recently used entry: the recency-list head, O(1). */
    size_t
    victim() const
    {
        mdp_assert(head != kNil, "LruState::victim on empty pool");
        return head;
    }

  private:
    static constexpr size_t kNil = static_cast<size_t>(-1);

    void
    linkBack(size_t index)
    {
        prev[index] = tail;
        next[index] = kNil;
        if (tail != kNil)
            next[tail] = index;
        else
            head = index;
        tail = index;
    }

    void
    unlink(size_t index)
    {
        size_t p = prev[index];
        size_t n = next[index];
        if (p != kNil)
            next[p] = n;
        else
            head = n;
        if (n != kNil)
            prev[n] = p;
        else
            tail = p;
    }

    std::vector<size_t> prev;
    std::vector<size_t> next;
    size_t head = kNil;
    size_t tail = kNil;
};

} // namespace mdp

#endif // MDP_BASE_LRU_HH
