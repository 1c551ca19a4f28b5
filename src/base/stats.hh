/**
 * @file
 * Lightweight statistics package: integer histograms and named scalar
 * statistics, with text dumping.  Modelled loosely on the gem5 stats
 * package but kept header-light.
 */

#ifndef MDP_BASE_STATS_HH
#define MDP_BASE_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace mdp
{

/**
 * A histogram over integer buckets [0, num_buckets); the last bucket
 * accumulates overflow.
 */
class Histogram
{
  public:
    explicit Histogram(size_t num_buckets = 64)
        : buckets(num_buckets, 0)
    {}

    void
    sample(uint64_t v, uint64_t times = 1)
    {
        size_t idx = v < buckets.size() ? static_cast<size_t>(v)
                                        : buckets.size() - 1;
        buckets[idx] += times;
        total += times;
    }

    uint64_t bucket(size_t idx) const { return buckets.at(idx); }
    size_t numBuckets() const { return buckets.size(); }
    uint64_t samples() const { return total; }

    /** Fraction of samples at or below the given bucket. */
    double
    cdfAt(size_t idx) const
    {
        if (total == 0)
            return 0.0;
        uint64_t acc = 0;
        for (size_t i = 0; i <= idx && i < buckets.size(); ++i)
            acc += buckets[i];
        return static_cast<double>(acc) / static_cast<double>(total);
    }

  private:
    std::vector<uint64_t> buckets;
    uint64_t total = 0;
};

/**
 * A named bag of scalar statistics that a simulator fills in and a
 * harness dumps.  Insertion order is preserved for stable output.
 */
class StatGroup
{
  public:
    /** Set (or overwrite) a scalar statistic. */
    void
    set(const std::string &name, double value)
    {
        auto it = index.find(name);
        if (it == index.end()) {
            index.emplace(name, entries.size());
            entries.emplace_back(name, value);
        } else {
            entries[it->second].second = value;
        }
    }

    /** Add to a scalar statistic, creating it at zero if missing. */
    void
    add(const std::string &name, double by)
    {
        auto it = index.find(name);
        if (it == index.end())
            set(name, by);
        else
            entries[it->second].second += by;
    }

    bool has(const std::string &name) const { return index.count(name); }

    double
    get(const std::string &name) const
    {
        auto it = index.find(name);
        return it == index.end() ? 0.0 : entries[it->second].second;
    }

    const std::vector<std::pair<std::string, double>> &
    all() const
    {
        return entries;
    }

    void dump(std::ostream &os, const std::string &prefix = "") const;

  private:
    std::vector<std::pair<std::string, double>> entries;
    std::map<std::string, size_t> index;
};

} // namespace mdp

#endif // MDP_BASE_STATS_HH
