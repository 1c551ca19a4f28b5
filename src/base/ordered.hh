/**
 * @file
 * A deterministic drain for unordered associative containers.
 *
 * Hash-map iteration order is implementation-defined, so model and
 * stats code must never let it leak into simulation state, report
 * rows, or accumulation order (mdp_lint rule `ordered-scope`).
 * When a hash map is the right structure for the hot path, drain it
 * through sortedByKey at the (cold) read-out point: it copies the
 * elements and sorts them by key, giving every consumer a
 * reproducible order.  This header is the one audited place allowed to iterate
 * unordered containers on the model side.
 */

#ifndef MDP_BASE_ORDERED_HH
#define MDP_BASE_ORDERED_HH

#include <algorithm>
#include <utility>
#include <vector>

namespace mdp
{

/** Copy a map's (key, value) pairs, sorted ascending by key. */
template <class Map>
std::vector<std::pair<typename Map::key_type,
                      typename Map::mapped_type>>
sortedByKey(const Map &m)
{
    std::vector<std::pair<typename Map::key_type,
                          typename Map::mapped_type>>
        items;
    items.reserve(m.size());
    for (const auto &kv : m)
        items.emplace_back(kv.first, kv.second);
    std::sort(items.begin(), items.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    return items;
}

} // namespace mdp

#endif // MDP_BASE_ORDERED_HH
