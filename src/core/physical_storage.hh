/**
 * @file
 * The physical memory organization of the EV8 branch predictor
 * (Section 7.1).
 *
 * Logically the predictor has four tables (x prediction + hysteresis),
 * but physically it is just eight memory arrays: for each of the four
 * banks, one prediction array and one hysteresis array. Each bank has
 * 64 wordlines; a wordline holds 32 8-bit prediction words for each of
 * G0, G1 and Meta plus 8 8-bit words for BIM. A prediction access
 * selects one wordline, then one 8-bit word per logical table, then
 * permutes the word's bits through the XOR unshuffle.
 *
 * Hysteresis arrays: BIM and G1 are full size; G0 and Meta have half
 * the columns -- the same index function minus its most significant
 * (column) bit, so two prediction entries share one hysteresis entry
 * (Section 4.4).
 *
 * Bit order: each array stores its bits in flat-index order
 * (ev8FlatIndex: bank, in-word bit, wordline, column from the least
 * significant bit up), a bijection with (bank, wordline, column, bit).
 * A hysteresis array is the same order truncated to its size, so
 * masking a flat index down to it drops the column MSB (i15) exactly
 * as Section 4.4 does. The flat accessors take an ev8EntryIndex()
 * value; the coordinate accessors address the same bits.
 */

#ifndef EV8_CORE_PHYSICAL_STORAGE_HH
#define EV8_CORE_PHYSICAL_STORAGE_HH

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/index_functions.hh"

namespace ev8
{

class MetricRegistry; // obs/metrics.hh

/** Wordlines per bank. */
constexpr unsigned kEv8Wordlines = 64;

/** Prediction-array columns (8-bit words per wordline) per table. */
constexpr unsigned
ev8PredColumns(TableId table)
{
    return table == BIM ? 8 : 32;
}

/** Hysteresis-array columns per table: half size for G0 and Meta. */
constexpr unsigned
ev8HystColumns(TableId table)
{
    switch (table) {
      case BIM: return 8;
      case G0: return 16;
      case G1: return 32;
      case META: return 16;
      default: return 0;
    }
}

/**
 * Bit-accurate model of the eight EV8 predictor memory arrays.
 *
 * Initial state is weakly not-taken everywhere: prediction bit 0,
 * hysteresis bit 1.
 */
class Ev8PhysicalStorage
{
  public:
    Ev8PhysicalStorage();

    /** Prediction-array bits of @p table: 2^ev8IndexBits(table). */
    static constexpr size_t
    predEntries(TableId table)
    {
        return size_t{4} * kEv8Wordlines * ev8PredColumns(table) * 8;
    }

    /** Hysteresis-array bits of @p table. */
    static constexpr size_t
    hystEntries(TableId table)
    {
        return size_t{4} * kEv8Wordlines * ev8HystColumns(table) * 8;
    }

    /** Reads/writes the prediction bit at flat index @p idx. */
    bool
    readPred(TableId table, size_t idx) const
    {
        assert(idx < predEntries(table));
        if (tracking) {
            ++access[table].predReads;
            ++wordlineReads_[table][ev8IndexWordline(idx)];
        }
        return pred[table][idx] != 0;
    }

    void
    writePred(TableId table, size_t idx, bool value)
    {
        assert(idx < predEntries(table));
        if (tracking)
            ++access[table].predWrites;
        pred[table][idx] = value;
    }

    /**
     * Reads/writes the hysteresis bit of flat index @p idx. The index
     * is masked to the hysteresis array's size (dropping the column
     * MSB for G0 and Meta), which is where the sharing of Section 4.4
     * happens.
     */
    bool
    readHyst(TableId table, size_t idx) const
    {
        assert(idx < predEntries(table));
        if (tracking)
            ++access[table].hystReads;
        return hyst[table][idx & (hystEntries(table) - 1)] != 0;
    }

    void
    writeHyst(TableId table, size_t idx, bool value)
    {
        assert(idx < predEntries(table));
        if (tracking)
            ++access[table].hystWrites;
        hyst[table][idx & (hystEntries(table) - 1)] = value;
    }

    /**
     * The eight bits a gskewStep() at flat indices @p idx reads and
     * may flip, untracked: the production stepper tallies per step
     * key instead (see setTracking()).
     */
    GskewStepBits<uint8_t>
    stepBits(const std::array<size_t, kNumTables> &idx)
    {
        GskewStepBits<uint8_t> bits{};
        for (unsigned t = 0; t < kNumTables; ++t) {
            const auto id = static_cast<TableId>(t);
            assert(idx[t] < predEntries(id));
            bits.word[t] = &pred[t][idx[t]];
            bits.word[4 + t] = &hyst[t][idx[t] & (hystEntries(id) - 1)];
        }
        return bits;
    }

    /** Adds @p n prediction-array reads of flat index @p idx to its
     *  wordline's tally, as @p n tracked readPred() calls would. */
    void
    addWordlineReads(TableId table, size_t idx, unsigned n)
    {
        wordlineReads_[table][ev8IndexWordline(idx)] += n;
    }

    /** Reads one full 8-bit prediction word (one array access). */
    uint8_t readPredWord(TableId table, const Ev8WordCoords &c) const;

    /** Reads/writes a single prediction bit by word coordinates. */
    bool
    readPredBit(TableId table, const Ev8WordCoords &c,
                unsigned bitpos) const
    {
        return readPred(table, ev8FlatIndex(c, bitpos));
    }

    void
    writePredBit(TableId table, const Ev8WordCoords &c, unsigned bitpos,
                 bool value)
    {
        writePred(table, ev8FlatIndex(c, bitpos), value);
    }

    /** Reads/writes a hysteresis bit by (prediction) word coordinates. */
    bool
    readHystBit(TableId table, const Ev8WordCoords &c,
                unsigned bitpos) const
    {
        return readHyst(table, ev8FlatIndex(c, bitpos));
    }

    void
    writeHystBit(TableId table, const Ev8WordCoords &c, unsigned bitpos,
                 bool value)
    {
        writeHyst(table, ev8FlatIndex(c, bitpos), value);
    }

    /** Total bits: 208 Kbits prediction + 144 Kbits hysteresis. */
    static constexpr uint64_t
    storageBits()
    {
        uint64_t bits = 0;
        for (unsigned t = 0; t < kNumTables; ++t) {
            const auto id = static_cast<TableId>(t);
            bits += predEntries(id) + hystEntries(id);
        }
        return bits;
    }

    /** Per-table access tallies (one count per read/write call). */
    using AccessStats = GskewAccessStats;

    const AccessStats &accessStats(TableId table) const
    {
        return access[table];
    }

    /**
     * Enables the per-access tallies of the tracked accessors
     * (readPred() and kin, the predict()/update() oracle's path). Off
     * by default, and the production stepper never counts per access:
     * it steps through stepBits() and counts step keys, which Ev8Predictor folds into the same access
     * totals at publish time (foldGskewAccess()). Only the wordline
     * tallies move per step, through addWordlineReads().
     */
    void setTracking(bool on) { tracking = on; }

    /** Prediction-array reads that touched each wordline of @p table,
     *  summed over the four banks (aliasing-pressure fingerprint). */
    const std::array<uint64_t, kEv8Wordlines> &
    wordlineReads(TableId table) const
    {
        return wordlineReads_[table];
    }

    /**
     * Publishes counters "<prefix>.<table>.{pred_reads,pred_writes,
     * hyst_reads,hyst_writes}" from @p tallies and gauges
     * "<prefix>.<table>.wordline_{max,mean}_reads" (table in
     * {bim,g0,g1,meta}).
     */
    void publishMetrics(
        MetricRegistry &registry, const std::string &prefix,
        const std::array<AccessStats, kNumTables> &tallies) const;

  private:
    // One byte per bit, in flat-index order.
    std::array<std::vector<uint8_t>, kNumTables> pred;
    std::array<std::vector<uint8_t>, kNumTables> hyst;

    // Access tallies; mutable because reads are logically const.
    bool tracking = false;
    mutable std::array<AccessStats, kNumTables> access{};
    mutable std::array<std::array<uint64_t, kEv8Wordlines>, kNumTables>
        wordlineReads_{};
};

/**
 * Checks the single-ported constraint: within one cycle (two fetch
 * blocks), no bank may be accessed twice. The bank-number computation
 * of Section 6.2 guarantees this by construction; the checker verifies
 * it dynamically in tests and the banking bench.
 */
class SinglePortChecker
{
  public:
    /** Starts a new cycle (two fetch-block slots). */
    void
    beginCycle()
    {
        accessed.fill(false);
    }

    /**
     * Registers an access to @p bank. Returns false if the bank was
     * already accessed this cycle (a port conflict).
     */
    bool
    access(unsigned bank)
    {
        if (accessed[bank & 0x3])
            return false;
        accessed[bank & 0x3] = true;
        return true;
    }

  private:
    std::array<bool, 4> accessed{};
};

} // namespace ev8

#endif // EV8_CORE_PHYSICAL_STORAGE_HH
