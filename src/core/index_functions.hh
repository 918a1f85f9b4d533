/**
 * @file
 * The EV8 predictor index functions of Section 7.
 *
 * Hardware constraints shape everything here:
 *
 *  - 8 index bits are shared by all four logical tables: the bank number
 *    (i1, i0), computed a cycle ahead (Section 6.2), and the wordline
 *    number (i10..i5), which feeds the array decoder directly and
 *    therefore cannot be hashed at all;
 *  - column bits (i15..i11 for G0/G1/Meta, i13..i11 for BIM) may each
 *    use at most one 2-entry XOR gate (one cycle phase);
 *  - the in-word bit position (i4..i2) goes through the "unshuffle" XOR
 *    permutation whose parameter may be an arbitrarily deep XOR tree
 *    (a whole cycle is available to compute it).
 *
 * Equation provenance: the published equations for the G1 and Meta
 * columns and unshuffles, the wordline, and the G0/Meta sharing of
 * i15/i14 are implemented verbatim. Three spots are typographically
 * garbled in the archival text and are reconstructed here following the
 * paper's own design principles (Section 7.5): the BIM extra bits, the
 * G0 column bits i13..i11, and the G0 unshuffle bit i4 (plus the
 * branch-offset terms a4/a3 that the OCR dropped). Each reconstruction
 * is marked "[reconstructed]" below.
 */

#ifndef EV8_CORE_INDEX_FUNCTIONS_HH
#define EV8_CORE_INDEX_FUNCTIONS_HH

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "predictors/gskew_policy.hh"

namespace ev8
{

/** How the shared (unhashed) wordline number is chosen -- Fig. 9. */
enum class WordlineMode
{
    /**
     * The EV8 choice: 4 lghist bits + 2 block address bits,
     * (i10..i5) = (h3, h2, h1, h0, a8, a7). This is why the BIM table
     * is "indexed using a 4-bit history length" (Section 4.7).
     */
    Ev8,

    /**
     * The rejected alternative: block address bits only. Simulations
     * showed the access distribution over the BIM table (and the shared
     * wordlines) was unbalanced -- some regions congested, others idle.
     */
    AddressOnly,
};

/** Per-fetch-block inputs to the index functions. */
struct Ev8IndexInput
{
    uint64_t blockAddr = 0; //!< A: address of the fetch block
    uint64_t hist = 0;      //!< H: three-blocks-old lghist (h20..h0)
    uint64_t zAddr = 0;     //!< Z: address of the previous fetch block
    unsigned bank = 0;      //!< (i1,i0) from the bank-number computation
};

/** Physical coordinates of one 8-bit prediction word. */
struct Ev8WordCoords
{
    unsigned bank = 0;      //!< 0..3
    unsigned wordline = 0;  //!< 0..63
    unsigned column = 0;    //!< 0..31 (G0/G1/Meta) or 0..7 (BIM)
    unsigned unshuffle = 0; //!< 3-bit XOR-permutation parameter u
};

/** Column bits per table: 5 for G0/G1/Meta, 3 for BIM. */
constexpr unsigned ev8ColumnBits(TableId table)
{
    return table == BIM ? 3 : 5;
}

/** log2 of a table's prediction entries: 14 for BIM, 16 otherwise. */
constexpr unsigned ev8IndexBits(TableId table)
{
    return 2 + 3 + 6 + ev8ColumnBits(table);
}

/** Computes the word coordinates for @p table under @p mode. */
Ev8WordCoords ev8WordCoords(TableId table, const Ev8IndexInput &in,
                            WordlineMode mode);

/**
 * The in-word bit position of a branch: its own PC offset bits
 * (a4, a3, a2) passed through the XOR unshuffle permutation.
 */
constexpr unsigned
ev8BitOffset(uint64_t branch_pc, unsigned unshuffle)
{
    return (static_cast<unsigned>(branch_pc >> 2) & 7) ^ (unshuffle & 7);
}

/**
 * Flat entry index with the paper's bit layout:
 * (i1,i0) bank, (i4..i2) offset, (i10..i5) wordline, (i15..i11) column.
 * The most significant bit is the top column bit, so dropping the MSB
 * (what the half-size hysteresis arrays do, Section 4.4) halves the
 * column space -- exactly the hardware behaviour.
 */
constexpr size_t
ev8FlatIndex(const Ev8WordCoords &c, unsigned offset)
{
    assert(c.bank < 4 && offset < 8 && c.wordline < 64);
    return static_cast<size_t>(c.bank) | (static_cast<size_t>(offset) << 2)
        | (static_cast<size_t>(c.wordline) << 5)
        | (static_cast<size_t>(c.column) << 11);
}

/** The flat entry index of one branch for @p table. */
size_t ev8EntryIndex(TableId table, const Ev8IndexInput &in,
                     uint64_t branch_pc, WordlineMode mode);

/** The in-word offset field (i4..i2) of a flat index. */
constexpr unsigned
ev8IndexOffset(size_t index)
{
    return static_cast<unsigned>((index >> 2) & 7);
}

/** The wordline field (i10..i5) of a flat index. */
constexpr unsigned
ev8IndexWordline(size_t index)
{
    return static_cast<unsigned>((index >> 5) & 0x3f);
}

/**
 * The Section 7 map tabulated per input byte. Every wordline, column
 * and unshuffle bit is an XOR of input bits with no constant term, so
 * the map from (A, H, Z) to the flat indices minus their bank and
 * branch-offset terms is GF(2)-linear: the XOR of the images of the
 * input's bytes. Entry b of a table packs the four tables' 16-bit
 * images of byte value b, table t at bits [16t, 16t + 16). The tables
 * are evaluated from ev8EntryIndex() on single-bit inputs, so the
 * equations above stay their only source.
 */
struct Ev8IndexTables
{
    static constexpr unsigned kABytes = 2; //!< a15..a0
    static constexpr unsigned kHBytes = 3; //!< h23..h0
    static constexpr unsigned kZBytes = 1; //!< z7..z0

    std::array<std::array<uint64_t, 256>, kABytes + kHBytes + kZBytes>
        lut{};

    /** The tables of both modes, built at first use. */
    static const Ev8IndexTables &
    forMode(WordlineMode mode)
    {
        static const std::array<Ev8IndexTables, 2> tables{
            build(WordlineMode::Ev8), build(WordlineMode::AddressOnly)};
        return tables[mode == WordlineMode::AddressOnly];
    }

  private:
    static Ev8IndexTables build(WordlineMode mode);
};

/**
 * All four tables' ev8EntryIndex() values at once: six table lookups
 * XORed, the bank bits ORed in and the branch's offset bits XORed in.
 */
inline std::array<size_t, kNumTables>
ev8EntryIndices(const Ev8IndexInput &in, uint64_t branch_pc,
                WordlineMode mode)
{
    const auto &lut = Ev8IndexTables::forMode(mode).lut;
    const uint64_t a = in.blockAddr, h = in.hist;
    const uint64_t v = lut[0][a & 0xff] ^ lut[1][(a >> 8) & 0xff]
        ^ lut[2][h & 0xff] ^ lut[3][(h >> 8) & 0xff]
        ^ lut[4][(h >> 16) & 0xff] ^ lut[5][in.zAddr & 0xff];
    const size_t pc_offset = branch_pc & 0x1c;
    const size_t bank = in.bank & 0x3;
    std::array<size_t, kNumTables> idx{};
    for (unsigned t = 0; t < kNumTables; ++t)
        idx[t] = (((v >> (16 * t)) & 0xffff) ^ pc_offset) | bank;
    return idx;
}

} // namespace ev8

#endif // EV8_CORE_INDEX_FUNCTIONS_HH
