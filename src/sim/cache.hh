/**
 * @file
 * Functional set-associative cache model with LRU replacement.
 *
 * The characterization study needs realistic access/miss/writeback
 * counts per level (they feed the PMU counters, the EDAC location
 * attribution and the energy model), not timing. The model is
 * therefore purely functional: a tag array with true LRU, write-back
 * write-allocate policy, and per-level protection metadata (parity
 * for the L1s, SECDED ECC for L2/L3, paper Table 2).
 */

#ifndef VMARGIN_SIM_CACHE_HH
#define VMARGIN_SIM_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace vmargin::sim
{

/** Array protection scheme (Table 2). */
enum class Protection
{
    Parity, ///< detect-only (L1I, L1D)
    Ecc     ///< SECDED: corrects 1 bit, detects 2 (L2, L3)
};

/** Outcome of a single cache lookup. */
struct AccessResult
{
    bool hit = false;
    bool evictedDirty = false; ///< a dirty victim was written back
};

/** Running statistics of one cache instance. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0; ///< dirty evictions
    uint64_t fills = 0;      ///< lines allocated

    /** Miss ratio; 0 when no accesses. */
    double missRatio() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }

    void reset() { *this = CacheStats(); }
};

/** One set-associative, write-back, write-allocate cache. */
class Cache
{
  public:
    /**
     * @param name instance name for diagnostics ("core3.l1d")
     * @param size_kb total capacity
     * @param assoc ways per set
     * @param line_bytes line size (power of two)
     * @param protection parity or ECC
     */
    Cache(std::string name, int size_kb, int assoc, int line_bytes,
          Protection protection);

    /**
     * Look up @p addr; on a miss the line is allocated (evicting the
     * LRU way). @p is_write marks the line dirty on hit/allocate.
     * Defined inline below — it is the innermost loop of every
     * characterization run and must inline into the hierarchy's
     * batch walks.
     */
    AccessResult access(uint64_t addr, bool is_write);

    /** Probe without side effects: would @p addr hit? */
    bool contains(uint64_t addr) const;

    /** Drop every line (power cycle); statistics survive. */
    void invalidateAll();

    /**
     * Assembled on demand: the hot path only maintains the
     * non-derivable counters (clock, writes, hits, writebacks);
     * accesses is the clock delta since the last reset, and
     * reads/misses/fills follow arithmetically (every miss fills
     * exactly one line in this write-allocate model).
     */
    CacheStats stats() const
    {
        CacheStats s;
        s.accesses = useClock_ - clockAtReset_;
        s.writes = writes_;
        s.reads = s.accesses - writes_;
        s.hits = hits_;
        s.misses = s.accesses - hits_;
        s.fills = s.misses;
        s.writebacks = writebacks_;
        return s;
    }

    void resetStats()
    {
        clockAtReset_ = useClock_;
        writes_ = 0;
        hits_ = 0;
        writebacks_ = 0;
    }

    const std::string &name() const { return name_; }
    Protection protection() const { return protection_; }
    int sizeKb() const { return sizeKb_; }
    int associativity() const { return assoc_; }
    int lineBytes() const { return lineBytes_; }
    size_t numSets() const { return sets_; }

    /** Number of currently valid lines (for tests/self-checks). */
    size_t validLines() const;

  private:
    /** Bits of a packed way key holding the line tag. Addresses are
     *  bounded by the per-core address-space split (core << 40 plus
     *  a sub-2^40 offset), so line tags (address >> lineShift_)
     *  occupy well under 40 bits. */
    static constexpr int kTagBits = 40;
    static constexpr uint64_t kTagMask = (1ULL << kTagBits) - 1;

    /** Generations live in the key's high 64-kTagBits bits and wrap
     *  after ~16.7M invalidations; invalidateAll() then falls back
     *  to one full key-array clear and restarts from generation 1,
     *  preserving semantics exactly (amortized cost ~0). */
    static constexpr uint32_t kGenLimit =
        (1U << (64 - kTagBits)) - 1;

    size_t setIndex(uint64_t addr) const;
    uint64_t tagOf(uint64_t addr) const;

    uint64_t keyOf(uint64_t tag) const
    {
        return (static_cast<uint64_t>(gen_) << kTagBits) | tag;
    }

    /** access() body with the associativity as a compile-time
     *  constant when non-zero (the scans fully unroll); 0 falls back
     *  to the runtime member for unusual geometries. */
    template <int kAssoc>
    AccessResult accessImpl(uint64_t addr, bool is_write);

    /** Allocate the way arrays; called by the first access(). */
    void allocateStorage();

    std::string name_;
    int sizeKb_;
    int assoc_;
    int lineBytes_;
    Protection protection_;
    size_t sets_;
    int lineShift_;

    /**
     * Packed way keys (generation << kTagBits | tag) in
     * structure-of-arrays layout, sets_ x assoc_ row-major: the hit
     * scan is one 64-bit compare per way over one contiguous cache
     * line per set. A way is valid iff its key's generation field
     * matches the cache's current generation (0 = never filled), so
     * invalidateAll() costs a single counter bump instead of a walk
     * over every way — the X-Gene 2's 8 MB L3 made the
     * per-power-cycle full-array clear one of the hottest functions
     * of a whole characterization sweep. Only keys_ needs
     * zero-initialization; lastUse_ is allocated uninitialized (its
     * content is never read before the way is filled, because a
     * stale generation reads as invalid).
     *
     * Both arrays are allocated by the first access(), not by the
     * constructor: empty keys_ reads as all ways invalid, exactly
     * like freshly zeroed keys. Measurement runs (campaigns, the
     * governor daemon) never walk the caches, so a platform that only
     * measures never allocates or zeroes the hierarchy's ~2.4 MB of
     * ways.
     *
     * lastUse_ packs (useClock << 1 | dirty): the clock strictly
     * increases, so two ways never share a clock value and the LRU
     * comparison on the packed values orders exactly like the bare
     * clocks — folding the dirty bit in saves a whole separate
     * byte array (and its cache-line traffic) on the hot path.
     */
    std::vector<uint64_t> keys_;
    std::unique_ptr<uint64_t[]> lastUse_;

    uint32_t gen_ = 1; ///< current validity generation
    uint64_t useClock_ = 0;
    uint64_t clockAtReset_ = 0;
    uint64_t writes_ = 0;
    uint64_t hits_ = 0;
    uint64_t writebacks_ = 0;
};

inline size_t
Cache::setIndex(uint64_t addr) const
{
    return (addr >> lineShift_) & (sets_ - 1);
}

inline uint64_t
Cache::tagOf(uint64_t addr) const
{
    return addr >> lineShift_;
}

template <int kAssoc>
inline AccessResult
Cache::accessImpl(uint64_t addr, bool is_write)
{
    const int assoc = kAssoc ? kAssoc : assoc_;

    ++useClock_;
    writes_ += is_write ? 1 : 0;

    const size_t base =
        setIndex(addr) * static_cast<size_t>(assoc);
    const uint64_t key = keyOf(tagOf(addr));
    const uint64_t *keys = keys_.data() + base;

    AccessResult result;
    // Hit scan first, kept free of victim bookkeeping: hits are the
    // overwhelmingly common outcome and this loop is the innermost
    // code of the whole simulator. One 64-bit compare checks both
    // validity (generation field) and the tag.
    for (int w = 0; w < assoc; ++w) {
        if (keys[w] == key) {
            ++hits_;
            uint64_t &use = lastUse_[base + static_cast<size_t>(w)];
            use = (useClock_ << 1) | (is_write ? 1 : (use & 1));
            result.hit = true;
            return result;
        }
    }

    // Miss: pick the eviction candidate — any invalid way wins,
    // otherwise least recently used (first-encountered on ties,
    // matching the historical single-pass scan).
    const uint64_t genField =
        static_cast<uint64_t>(gen_) << kTagBits;
    int victim = -1;
    for (int w = 0; w < assoc; ++w) {
        if ((keys[w] & ~kTagMask) != genField) {
            victim = w;
            break;
        }
    }
    const bool evicting_valid = victim < 0;
    if (evicting_valid) {
        const uint64_t *use = lastUse_.get() + base;
        victim = 0;
        for (int w = 1; w < assoc; ++w)
            if (use[w] < use[victim])
                victim = w;
    }
    const size_t slot = base + static_cast<size_t>(victim);

    if (evicting_valid && (lastUse_[slot] & 1)) {
        ++writebacks_;
        result.evictedDirty = true;
    }
    keys_[slot] = key;
    lastUse_[slot] = (useClock_ << 1) | (is_write ? 1 : 0);
    return result;
}

inline AccessResult
Cache::access(uint64_t addr, bool is_write)
{
    if (keys_.empty()) [[unlikely]]
        allocateStorage();
    // The X-Gene 2 geometries are 8-way (L1s, L2) and 16-way (L3);
    // dispatching on the associativity gives those bodies
    // fixed-trip-count scans the compiler unrolls fully. Each Cache
    // instance always takes the same arm, so the branch predicts
    // perfectly inside the batch loops.
    switch (assoc_) {
    case 8:
        return accessImpl<8>(addr, is_write);
    case 16:
        return accessImpl<16>(addr, is_write);
    default:
        return accessImpl<0>(addr, is_write);
    }
}

} // namespace vmargin::sim

#endif // VMARGIN_SIM_CACHE_HH
