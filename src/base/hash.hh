/**
 * @file
 * FNV-1a hashing for content addressing.
 *
 * The trace cache keys entries by a digest of everything that
 * determines the generated trace (format version, profile fields,
 * scale, seed) and checksums file payloads.  FNV-1a is not
 * cryptographic -- the cache defends against corruption and staleness,
 * not adversaries -- but it is fast, dependency-free and stable across
 * platforms, which is what a build-artifact key needs.
 */

#ifndef MDP_BASE_HASH_HH
#define MDP_BASE_HASH_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

namespace mdp
{

/** Incremental FNV-1a (64-bit). */
class Fnv1a
{
  public:
    static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
    static constexpr uint64_t kPrime = 0x100000001b3ull;

    /** Mix raw bytes into the running hash. */
    Fnv1a &
    bytes(const void *data, size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < len; ++i) {
            state ^= p[i];
            state *= kPrime;
        }
        return *this;
    }

    /** Mix a trivially-copyable value by its object representation. */
    template <typename T>
    Fnv1a &
    value(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "hash only raw values");
        return bytes(&v, sizeof(T));
    }

    /** Mix a string: length first, so "ab"+"c" != "a"+"bc". */
    Fnv1a &
    str(const std::string &s)
    {
        value<uint64_t>(s.size());
        return bytes(s.data(), s.size());
    }

    uint64_t digest() const { return state; }

  private:
    uint64_t state = kOffsetBasis;
};

/** One-shot FNV-1a over a byte range. */
inline uint64_t
fnv1a(const void *data, size_t len)
{
    return Fnv1a().bytes(data, len).digest();
}

/**
 * Bulk checksum for large payloads: FNV-1a over 64-bit words in four
 * interleaved lanes, folded with the tail bytes and the length into
 * one byte-wise FNV-1a.  Breaking the per-byte dependency chain makes
 * this roughly an order of magnitude faster than fnv1a() on megabyte
 * payloads -- it is a different function with the same corruption-
 * detection role, used for trace-file payloads (serialize.hh).  Word
 * loads make the result byte-order dependent, like every other part
 * of the (little-endian) trace format.
 *
 * Incremental: update() may be fed the payload in pieces of any size
 * (a writer checksums the trace columns where they lie), and digest()
 * equals fnv1aBulk() over the concatenation.
 */
class Fnv1aBulk
{
  public:
    /** Mix the next @p len payload bytes. */
    Fnv1aBulk &
    update(const void *data, size_t len)
    {
        if (len == 0)
            return *this;
        const auto *p = static_cast<const unsigned char *>(data);
        total += len;
        if (pending > 0) {
            const size_t take = std::min(len, kBlock - pending);
            std::memcpy(block + pending, p, take);
            pending += take;
            p += take;
            len -= take;
            if (pending < kBlock)
                return *this;
            mix(block);
            pending = 0;
        }
        for (; len >= kBlock; p += kBlock, len -= kBlock)
            mix(p);
        if (len > 0)
            std::memcpy(block, p, len);
        pending = len;
        return *this;
    }

    /** Checksum of every byte fed so far. */
    uint64_t
    digest() const
    {
        Fnv1a h;
        for (uint64_t l : lane)
            h.value<uint64_t>(l);
        h.bytes(block, pending);
        h.value<uint64_t>(total);
        return h.digest();
    }

  private:
    static constexpr size_t kBlock = 32; ///< four 64-bit lane words

    void
    mix(const unsigned char *p)
    {
        uint64_t w[4];
        std::memcpy(w, p, sizeof(w));
        for (int l = 0; l < 4; ++l) {
            lane[l] ^= w[l];
            lane[l] *= Fnv1a::kPrime;
        }
    }

    uint64_t lane[4] = {Fnv1a::kOffsetBasis ^ 1, Fnv1a::kOffsetBasis ^ 2,
                        Fnv1a::kOffsetBasis ^ 3, Fnv1a::kOffsetBasis ^ 4};
    unsigned char block[kBlock] = {}; ///< bytes short of a full block
    size_t pending = 0;
    uint64_t total = 0;
};

/** One-shot Fnv1aBulk over a byte range. */
inline uint64_t
fnv1aBulk(const void *data, size_t len)
{
    return Fnv1aBulk().update(data, len).digest();
}

/** Render a digest as fixed-width lowercase hex (filename-safe). */
inline std::string
hashHex(uint64_t digest)
{
    static const char kHex[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[i] = kHex[digest & 0xf];
        digest >>= 4;
    }
    return out;
}

} // namespace mdp

#endif // MDP_BASE_HASH_HH
