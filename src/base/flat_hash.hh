/**
 * @file
 * Open-addressing hash map for hot-path address/key lookups.
 *
 * The one hash map in src/: the mdp-lint `ordered-scope` rule bans the
 * std hash containers there.  A node-based std map costs one
 * allocation per element and a pointer chase per probe; the
 * simulators' inner loops (ARB address tracking, the MDPT's per-PC
 * chain heads, dependence oracle construction) do millions of lookups
 * on small keys, where an open-addressed table with linear probing is
 * several times faster.
 *
 * Determinism by construction: this container exposes NO iteration
 * API (no begin/end, no visitation), so probe order and rehash layout
 * can never leak into simulation state or report rows.  Callers that
 * need an ordered read-out must maintain their own key list.
 *
 * Deletion uses backward-shift (no tombstones), so lookup cost stays
 * bounded by the current load factor regardless of churn.
 */

#ifndef MDP_BASE_FLAT_HASH_HH
#define MDP_BASE_FLAT_HASH_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"

namespace mdp
{

/**
 * Open-addressed (linear probing, power-of-two capacity) map from an
 * integral key to a value.  Keys are scrambled with the splitmix64
 * finalizer, so sequential PCs/addresses do not cluster.
 */
template <typename Key, typename T>
class FlatHashMap
{
  public:
    FlatHashMap() = default;

    size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Pre-size for @p n elements without exceeding the load factor. */
    void
    reserve(size_t n)
    {
        size_t needed = slotsFor(n);
        if (needed > slots.size())
            rehash(needed);
    }

    void
    clear()
    {
        slots.clear();
        used.clear();
        count = 0;
    }

    /** @return pointer to the mapped value, or nullptr. */
    T *
    find(Key k)
    {
        if (count == 0)
            return nullptr;
        size_t i = probe(k);
        return used[i] ? &slots[i].value : nullptr;
    }

    const T *
    find(Key k) const
    {
        if (count == 0)
            return nullptr;
        size_t i = probe(k);
        return used[i] ? &slots[i].value : nullptr;
    }

    bool contains(Key k) const { return find(k) != nullptr; }

    /** Find-or-default-construct, as std::map::operator[]. */
    T &
    operator[](Key k)
    {
        if (slots.empty() || (count + 1) * 4 > slots.size() * 3)
            rehash(slots.empty() ? kMinSlots : slots.size() * 2);
        size_t i = probe(k);
        if (!used[i]) {
            used[i] = 1;
            slots[i].key = k;
            slots[i].value = T{};
            ++count;
        }
        return slots[i].value;
    }

    /** Remove a key.  @return true when it was present. */
    bool
    erase(Key k)
    {
        if (count == 0)
            return false;
        size_t i = probe(k);
        if (!used[i])
            return false;
        // Backward-shift deletion: close the hole by sliding back every
        // subsequent probe-chain element that is not already at home.
        used[i] = 0;
        slots[i] = Slot{};
        --count;
        size_t mask = slots.size() - 1;
        size_t j = i;
        while (true) {
            j = (j + 1) & mask;
            if (!used[j])
                break;
            size_t home = indexOf(slots[j].key);
            // Move j into the hole unless its home lies in (i, j]
            // (cyclically), i.e. unless the shift would move it before
            // its own probe start.
            bool home_in_gap = (j > i) ? (home > i && home <= j)
                                       : (home > i || home <= j);
            if (!home_in_gap) {
                slots[i] = std::move(slots[j]);
                used[i] = 1;
                used[j] = 0;
                slots[j] = Slot{};
                i = j;
            }
        }
        return true;
    }

  private:
    struct Slot
    {
        Key key{};
        T value{};
    };

    static constexpr size_t kMinSlots = 16;

    static size_t
    slotsFor(size_t n)
    {
        size_t s = kMinSlots;
        while (n * 4 > s * 3)
            s *= 2;
        return s;
    }

    size_t
    indexOf(Key k) const
    {
        return static_cast<size_t>(mix64(static_cast<uint64_t>(k))) &
               (slots.size() - 1);
    }

    /** First slot holding @p k, or the first empty slot of its chain. */
    size_t
    probe(Key k) const
    {
        size_t mask = slots.size() - 1;
        size_t i = indexOf(k);
        while (used[i] && slots[i].key != k)
            i = (i + 1) & mask;
        return i;
    }

    void
    rehash(size_t new_slots)
    {
        std::vector<Slot> old_slots = std::move(slots);
        std::vector<uint8_t> old_used = std::move(used);
        slots.assign(new_slots, Slot{});
        used.assign(new_slots, 0);
        for (size_t i = 0; i < old_slots.size(); ++i) {
            if (!old_used[i])
                continue;
            size_t j = probe(old_slots[i].key);
            slots[j] = std::move(old_slots[i]);
            used[j] = 1;
        }
    }

    std::vector<Slot> slots;
    std::vector<uint8_t> used;
    size_t count = 0;
};

} // namespace mdp

#endif // MDP_BASE_FLAT_HASH_HH
