/**
 * @file
 * Synthetic execution activity for a workload profile.
 *
 * The core model consumes one EpochActivity per epoch (a fixed
 * instruction window). The generator expands the profile's average
 * rates into per-epoch event counts with small deterministic noise,
 * and provides the memory address stream that drives the functional
 * cache hierarchy.
 */

#ifndef VMARGIN_WORKLOADS_GENERATOR_HH
#define VMARGIN_WORKLOADS_GENERATOR_HH

#include <cstdint>

#include "profile.hh"
#include "util/rng.hh"

namespace vmargin::wl
{

/** Event counts for one epoch of execution. */
struct EpochActivity
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t dispatchStallCycles = 0;
    uint64_t aluOps = 0;
    uint64_t fpuOps = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
    uint64_t branchMispredicts = 0;
    uint64_t btbMisses = 0;
    uint64_t exceptions = 0;
    uint64_t unalignedAccesses = 0;
    uint64_t tlbRefills = 0;
    uint64_t pageWalks = 0;

    /** Effective IPC of the epoch. */
    double ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * Address stream with tunable spatial/temporal locality over the
 * profile's working set. Addresses are byte addresses in a flat
 * private address space; the cache hierarchy only looks at line/set
 * bits.
 */
class AddressStream
{
  public:
    /**
     * @param working_set_bytes footprint the stream walks
     * @param spatial 0..1 probability of sequential advance
     * @param temporal 0..1 probability of revisiting the hot subset
     * @param seed deterministic stream seed
     */
    AddressStream(uint64_t working_set_bytes, double spatial,
                  double temporal, Seed seed);

    /** Next data address. Defined inline below — it runs once per
     *  sampled access inside the kernel's batch loops. */
    uint64_t next();

  private:
    /**
     * Draw uniformly from [0, span): the body of
     * Rng::uniformInt(0, span - 1) with its rejection limit
     * precomputed per stream, so the hot path pays no division for
     * the limit. Consumes exactly the same next() values and yields
     * exactly the same result as the generic helper.
     */
    uint64_t drawBelow(uint64_t span, uint64_t limit)
    {
        uint64_t value = rng_.next();
        while (value >= limit)
            value = rng_.next();
        return value % span;
    }

    uint64_t workingSet_;
    uint64_t hotBytes_;
    double spatial_;
    double temporal_;
    uint64_t wsLimit_;  ///< rejection limit for span workingSet_
    uint64_t hotLimit_; ///< rejection limit for span hotBytes_
    uint64_t cursor_ = 0;
    util::Rng rng_;
};

inline uint64_t
AddressStream::next()
{
    if (rng_.bernoulli(spatial_)) {
        // Sequential advance by one 8-byte word, wrapping at the
        // working-set boundary. cursor_ < workingSet_ always holds,
        // so the wrap is a compare instead of a modulo.
        cursor_ += 8;
        if (cursor_ >= workingSet_)
            cursor_ -= workingSet_;
    } else if (rng_.bernoulli(temporal_)) {
        // Jump back into the hot subset at the bottom of the range.
        cursor_ = drawBelow(hotBytes_, hotLimit_);
    } else {
        cursor_ = drawBelow(workingSet_, wsLimit_);
    }
    return cursor_;
}

/**
 * Per-epoch activity generator. Deterministic: epoch @p index of a
 * given (profile, seed) pair always yields the same counts.
 */
class ActivityGenerator
{
  public:
    ActivityGenerator(const WorkloadProfile &profile, Seed seed);

    /** Generate the counts for epoch @p index. */
    EpochActivity epoch(uint32_t index) const;

    /**
     * Epoch @p index's instructions and cycles, equal to epoch()'s;
     * every other count stays zero. A measurement run reads nothing
     * else, and each epoch draws from its own stream, so the draws
     * skipped after the first two move nothing that is read.
     */
    EpochActivity timing(uint32_t index) const;

    const WorkloadProfile &profile() const { return profile_; }

  private:
    /** Epoch @p index's own stream, with its timing drawn into
     *  @p act: the two draws epoch() and timing() share. */
    util::Rng drawTiming(uint32_t index, EpochActivity &act) const;

    WorkloadProfile profile_;
    Seed seed_;
};

} // namespace vmargin::wl

#endif // VMARGIN_WORKLOADS_GENERATOR_HH
