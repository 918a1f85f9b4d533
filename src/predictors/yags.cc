#include "predictors/yags.hh"

#include "common/bits.hh"

namespace ev8
{

YagsPredictor::YagsPredictor(unsigned log2_choice, unsigned log2_cache,
                             unsigned history_length, unsigned tag_bits)
    : log2Choice(log2_choice), log2Cache(log2_cache),
      histLen(history_length), tagBits(tag_bits),
      choice(size_t{1} << log2_choice),
      takenCache(size_t{1} << log2_cache),
      notTakenCache(size_t{1} << log2_cache)
{
}

size_t
YagsPredictor::cacheIndex(const BranchSnapshot &snap) const
{
    const uint64_t h = snap.hist.indexHist & mask(histLen);
    const uint64_t folded = histLen == 0 ? 0 : xorFold(h, log2Cache);
    return static_cast<size_t>(((snap.pc >> 2) ^ folded)
                               & mask(log2Cache));
}

uint16_t
YagsPredictor::tagOf(uint64_t pc) const
{
    return static_cast<uint16_t>((pc >> 2) & mask(tagBits));
}

bool
YagsPredictor::predict(const BranchSnapshot &snap)
{
    const bool bias_taken = choice.taken((snap.pc >> 2) & mask(log2Choice));
    const Cache &cache = bias_taken ? notTakenCache : takenCache;
    const CacheEntry &entry = cache[cacheIndex(snap)];
    if (entry.valid && entry.tag == tagOf(snap.pc))
        return entry.counter >= 2;
    return bias_taken;
}

void
YagsPredictor::update(const BranchSnapshot &snap, bool taken, bool)
{
    const size_t ci = (snap.pc >> 2) & mask(log2Choice);
    const bool bias_taken = choice.taken(ci);
    Cache &cache = bias_taken ? notTakenCache : takenCache;
    CacheEntry &entry = cache[cacheIndex(snap)];
    const bool hit = entry.valid && entry.tag == tagOf(snap.pc);

    if (hit) {
        // Train the exception entry toward the outcome.
        if (taken) {
            if (entry.counter < 3)
                ++entry.counter;
        } else {
            if (entry.counter > 0)
                --entry.counter;
        }
    } else if (taken != bias_taken) {
        // The bias mispredicted with no exception recorded: allocate.
        entry.valid = true;
        entry.tag = tagOf(snap.pc);
        entry.counter = taken ? 2 : 1; // weak state toward the outcome
    }

    // The choice table keeps tracking the branch's bias, but is not
    // degraded when the exception cache already covers the deviation.
    const bool cache_correct = hit && ((entry.counter >= 2) == taken);
    if (!(bias_taken != taken && cache_correct))
        choice.update(ci, taken);
}

bool
YagsPredictor::predictAndUpdate(const BranchSnapshot &snap, bool taken)
{
    const size_t ci = (snap.pc >> 2) & mask(log2Choice);
    const bool bias_taken = choice.taken(ci);
    Cache &cache = bias_taken ? notTakenCache : takenCache;
    CacheEntry &entry = cache[cacheIndex(snap)];
    const bool hit = entry.valid && entry.tag == tagOf(snap.pc);
    const bool predicted = hit ? entry.counter >= 2 : bias_taken;

    if (hit) {
        if (taken) {
            if (entry.counter < 3)
                ++entry.counter;
        } else {
            if (entry.counter > 0)
                --entry.counter;
        }
    } else if (taken != bias_taken) {
        entry.valid = true;
        entry.tag = tagOf(snap.pc);
        entry.counter = taken ? 2 : 1;
    }

    const bool cache_correct = hit && ((entry.counter >= 2) == taken);
    if (!(bias_taken != taken && cache_correct))
        choice.update(ci, taken);
    return predicted;
}

uint64_t
YagsPredictor::storageBits() const
{
    // Choice: 2 bits/entry. Caches: 2-bit counter + tag per entry (the
    // valid bit is an artifact of cold-start modelling, as in [4]).
    const uint64_t cache_bits =
        (uint64_t{2} << log2Cache) + (uint64_t(tagBits) << log2Cache);
    return choice.storageBits() + 2 * cache_bits;
}

std::string
YagsPredictor::name() const
{
    return "yags-" + std::to_string(size_t{1} << log2Choice) + "+2x"
        + std::to_string(size_t{1} << log2Cache) + "-h"
        + std::to_string(histLen);
}

} // namespace ev8
