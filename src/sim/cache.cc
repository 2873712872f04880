#include "cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vmargin::sim
{

using util::panicf;

namespace
{

int
log2OfPow2(int value)
{
    int shift = 0;
    while ((1 << shift) < value)
        ++shift;
    return shift;
}

} // namespace

Cache::Cache(std::string name, int size_kb, int assoc, int line_bytes,
             Protection protection)
    : name_(std::move(name)), sizeKb_(size_kb), assoc_(assoc),
      lineBytes_(line_bytes), protection_(protection)
{
    if (size_kb <= 0 || assoc <= 0 || line_bytes <= 0)
        panicf("Cache ", name_, ": non-positive geometry");
    if (line_bytes & (line_bytes - 1))
        panicf("Cache ", name_, ": line size must be a power of two");
    const auto total_lines =
        static_cast<size_t>(size_kb) * 1024 /
        static_cast<size_t>(line_bytes);
    if (total_lines % static_cast<size_t>(assoc) != 0)
        panicf("Cache ", name_, ": ", total_lines,
               " lines not divisible by associativity ", assoc);
    sets_ = total_lines / static_cast<size_t>(assoc);
    if (sets_ == 0 || (sets_ & (sets_ - 1)))
        panicf("Cache ", name_, ": set count ", sets_,
               " must be a non-zero power of two");
    lineShift_ = log2OfPow2(line_bytes);
}

void
Cache::allocateStorage()
{
    const size_t lines = sets_ * static_cast<size_t>(assoc_);
    // Only the key array needs a defined initial value (generation
    // field 0 != gen_ marks every way invalid). The timestamp array
    // is deliberately left uninitialized — an invalid way's
    // timestamp/dirty word is never read before the way is filled.
    keys_.assign(lines, 0);
    lastUse_.reset(new uint64_t[lines]);
}

bool
Cache::contains(uint64_t addr) const
{
    if (keys_.empty())
        return false; // never accessed: every way is invalid
    const size_t base =
        setIndex(addr) * static_cast<size_t>(assoc_);
    const uint64_t key = keyOf(tagOf(addr));
    for (int w = 0; w < assoc_; ++w) {
        if (keys_[base + static_cast<size_t>(w)] == key)
            return true;
    }
    return false;
}

void
Cache::invalidateAll()
{
    // Bumping the generation invalidates every way at once (stale
    // generations read as invalid and not dirty, exactly like the
    // old clear-every-way walk). When the generation field would
    // overflow its bits of the packed key, fall back to one full
    // clear and restart — semantics are identical, and the walk is
    // amortized over ~16.7M cheap invalidations.
    if (gen_ == kGenLimit) {
        std::fill(keys_.begin(), keys_.end(), 0);
        gen_ = 1;
        return;
    }
    ++gen_;
}

size_t
Cache::validLines() const
{
    const uint64_t genField =
        static_cast<uint64_t>(gen_) << kTagBits;
    size_t count = 0;
    for (const uint64_t key : keys_)
        if ((key & ~kTagMask) == genField)
            ++count;
    return count;
}

} // namespace vmargin::sim
