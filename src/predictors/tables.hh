/**
 * @file
 * Compact counter-table storage shared by the predictor implementations.
 *
 * Both table types store exactly as many bits as the hardware would: 2
 * bits per counter (32 counters per 64-bit word) and 1 bit per split
 * prediction/hysteresis entry. Beyond honesty about the storage budget,
 * packing is a throughput optimization: the paper's largest tables (a
 * 352-Kbit 2Bc-gskew, megabit gshares) overflow L2 as byte-per-counter
 * arrays but fit their actual size packed, so the simulation's random
 * table walks stop missing cache. The bit arithmetic is a shift and a
 * mask -- cheaper than the memory hierarchy levels it saves.
 */

#ifndef EV8_PREDICTORS_TABLES_HH
#define EV8_PREDICTORS_TABLES_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/bits.hh"

namespace ev8
{

/**
 * A dense table of 2-bit saturating counters, packed 32 to a 64-bit
 * word. All entries initialize to weakly-not-taken (value 1), the
 * initial state the paper uses for its simulations (Section 8.1.1).
 */
class TwoBitCounterTable
{
  public:
    static constexpr uint8_t kWeaklyNotTaken = 1;

    explicit TwoBitCounterTable(size_t entries = 0)
        : words((entries + kPerWord - 1) / kPerWord, kInitWord),
          entries_(entries)
    {
        assert(entries == 0 || isPowerOf2(entries));
    }

    size_t size() const { return entries_; }

    bool
    taken(size_t idx) const
    {
        // Counter >= 2 is exactly "bit 1 of the counter is set".
        return ((words[idx / kPerWord] >> (shift(idx) + 1)) & 1) != 0;
    }

    /** True at either saturated extreme. */
    bool
    isStrong(size_t idx) const
    {
        const uint8_t c = raw(idx);
        return c == 0 || c == 3;
    }

    uint8_t
    raw(size_t idx) const
    {
        return static_cast<uint8_t>(
            (words[idx / kPerWord] >> shift(idx)) & 3u);
    }

    void
    set(size_t idx, uint8_t value)
    {
        assert(value <= 3);
        uint64_t &w = words[idx / kPerWord];
        const unsigned s = shift(idx);
        w = (w & ~(uint64_t{3} << s)) | (uint64_t{value} << s);
    }

    void
    update(size_t idx, bool taken)
    {
        const uint8_t c = raw(idx);
        if (taken) {
            if (c < 3)
                set(idx, c + 1);
        } else {
            if (c > 0)
                set(idx, c - 1);
        }
    }

    /**
     * Fused taken()+update(): one word read serves both the prediction
     * and the saturation test, and the +-1 step is a single add/sub on
     * the packed word (the 2-bit lane cannot carry into its neighbour
     * because the saturation check bounds it first). Returns what
     * taken(idx) returned before the update.
     */
    bool
    readAndUpdate(size_t idx, bool taken)
    {
        uint64_t &w = words[idx / kPerWord];
        const unsigned s = shift(idx);
        const uint8_t c = static_cast<uint8_t>((w >> s) & 3u);
        if (taken) {
            if (c < 3)
                w += uint64_t{1} << s;
        } else {
            if (c > 0)
                w -= uint64_t{1} << s;
        }
        return (c & 2u) != 0;
    }

    /** Pushes the counter deeper in its current direction. */
    void
    strengthen(size_t idx)
    {
        update(idx, taken(idx));
    }

    /** Storage cost: 2 bits per entry. */
    uint64_t storageBits() const { return uint64_t{entries_} * 2; }

    static constexpr size_t kPerWord = 32; //!< 2-bit counters per word

    /** Raw packed-word access for the vector fused-group steppers. */
    uint64_t *wordsData() { return words.data(); }
    const uint64_t *wordsData() const { return words.data(); }

    /**
     * Saturating increment of every 2-bit counter whose bit0 is set in
     * @p sel, as bitplane boolean arithmetic on the packed word: with
     * b0/b1 the low/high bitplanes, counters not already at 3 flip b0,
     * and those whose b0 was set carry into b1. Stray odd bits of
     * @p sel are ignored. Templated over the word type so the same
     * definition serves uint64_t (scalar, unit tests) and the simd.hh
     * vector wrappers (the fused hot path); W needs a broadcasting
     * W(uint64_t) constructor and &, |, ^, ~, <<1, >>1.
     *
     * Equivalent to update(idx, true) per selected counter -- the
     * exhaustive state x mask check lives in tests/test_simd.cc.
     */
    template <class W>
    static W
    maskedSatIncWord(const W &w, const W &sel)
    {
        const W low(0x5555555555555555ULL);
        const W b0 = w & low;
        const W b1 = (w >> 1) & low;
        const W eff = sel & low & ~(b0 & b1); // not saturated at 3
        return w ^ eff ^ ((b0 & eff) << 1);   // flip b0, carry into b1
    }

    /** Saturating decrement counterpart of maskedSatIncWord(). */
    template <class W>
    static W
    maskedSatDecWord(const W &w, const W &sel)
    {
        const W low(0x5555555555555555ULL);
        const W b0 = w & low;
        const W b1 = (w >> 1) & low;
        const W eff = sel & low & (b0 | b1); // not saturated at 0
        return w ^ eff ^ ((~b0 & eff) << 1); // flip b0, borrow from b1
    }

  private:
    /** 32 copies of weakly-not-taken (01 in every 2-bit lane). */
    static constexpr uint64_t kInitWord = 0x5555555555555555ULL;

    static unsigned
    shift(size_t idx)
    {
        return static_cast<unsigned>((idx % kPerWord) * 2);
    }

    std::vector<uint64_t> words;
    size_t entries_ = 0;
};

/**
 * A 2-bit counter table physically split into a prediction-bit array and
 * a (possibly smaller) hysteresis-bit array, as on the EV8 (Sections
 * 4.3-4.4). When the hysteresis array has half as many entries as the
 * prediction array, two prediction entries share one hysteresis entry:
 * same index minus the most significant bit. Each array stores one bit
 * per entry, 64 to a word -- the split tables are exactly their Table 4
 * storage budget in memory.
 *
 * Initial state is weakly not-taken: prediction 0, hysteresis 1.
 */
class SplitCounterArray
{
  public:
    SplitCounterArray() = default;

    SplitCounterArray(size_t pred_entries, size_t hyst_entries)
        : pred((pred_entries + 63) / 64, 0),
          hyst((hyst_entries + 63) / 64, ~uint64_t{0}),
          predSize_(pred_entries), hystSize_(hyst_entries),
          hystMask(hyst_entries - 1)
    {
        assert(isPowerOf2(pred_entries));
        assert(isPowerOf2(hyst_entries));
        assert(hyst_entries <= pred_entries);
    }

    size_t predSize() const { return predSize_; }
    size_t hystSize() const { return hystSize_; }

    /** Maps a prediction index onto its (possibly shared) hysteresis
     *  entry by dropping high-order index bits (Section 4.4). */
    size_t hystIndex(size_t idx) const { return idx & hystMask; }

    bool taken(size_t idx) const { return getBit(pred, idx); }

    /** Strong = hysteresis agrees with the prediction bit. */
    bool
    isStrong(size_t idx) const
    {
        return getBit(hyst, hystIndex(idx)) == getBit(pred, idx);
    }

    /**
     * Partial-update "strengthen": only the hysteresis array is written
     * (a correct prediction never touches the prediction array).
     */
    void
    strengthen(size_t idx)
    {
        setBit(hyst, hystIndex(idx), getBit(pred, idx));
    }

    /**
     * Full 2-bit-counter step toward @p taken: reads the hysteresis bit
     * and writes prediction and/or hysteresis as needed.
     */
    void
    update(size_t idx, bool taken)
    {
        const bool p = getBit(pred, idx);
        const size_t hi = hystIndex(idx);
        if (p == taken) {
            setBit(hyst, hi, p);       // strengthen
        } else if (getBit(hyst, hi) == p) {
            setBit(hyst, hi, !p);      // strong -> weak
        } else {
            setBit(pred, idx, taken);  // weak -> flip direction
            setBit(hyst, hi, !taken);  // (stays weak)
        }
    }

    uint64_t
    storageBits() const
    {
        return uint64_t{predSize_} + uint64_t{hystSize_};
    }

    uint8_t rawPred(size_t idx) const { return getBit(pred, idx); }

    /**
     * Raw bitplane words, 64 entries to a word, for the fused group
     * stepper: it locates each step's eight bits once, reads them into
     * a kGskewPolicy key and XORs the key's flips back (gskewStep() in
     * gskew_policy.hh).
     */
    uint64_t *predWords() { return pred.data(); }
    uint64_t *hystWords() { return hyst.data(); }

    uint8_t
    rawHyst(size_t idx) const
    {
        return getBit(hyst, hystIndex(idx));
    }

    void
    setRaw(size_t idx, bool prediction, bool hysteresis)
    {
        setBit(pred, idx, prediction);
        setBit(hyst, hystIndex(idx), hysteresis);
    }

  private:
    static bool
    getBit(const std::vector<uint64_t> &bits, size_t idx)
    {
        return ((bits[idx / 64] >> (idx % 64)) & 1) != 0;
    }

    static void
    setBit(std::vector<uint64_t> &bits, size_t idx, bool value)
    {
        uint64_t &w = bits[idx / 64];
        const uint64_t mask = uint64_t{1} << (idx % 64);
        w = value ? (w | mask) : (w & ~mask);
    }

    std::vector<uint64_t> pred;
    std::vector<uint64_t> hyst;
    size_t predSize_ = 0;
    size_t hystSize_ = 0;
    size_t hystMask = 0;
};

} // namespace ev8

#endif // EV8_PREDICTORS_TABLES_HH
