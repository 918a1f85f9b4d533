#include "core/index_functions.hh"

#include <bit>
#include <cassert>

#include "common/bits.hh"

namespace ev8
{

namespace
{

/** Bit i of the block address, using the paper's a-numbering. */
constexpr unsigned
a(const Ev8IndexInput &in, unsigned i)
{
    return static_cast<unsigned>(bit(in.blockAddr, i));
}

/** Bit i of the previous fetch block's address (path information). */
constexpr unsigned
z(const Ev8IndexInput &in, unsigned i)
{
    return static_cast<unsigned>(bit(in.zAddr, i));
}

/** Bit i of the three-blocks-old lghist. */
constexpr unsigned
h(const Ev8IndexInput &in, unsigned i)
{
    return static_cast<unsigned>(bit(in.hist, i));
}

/**
 * The shared wordline number (i10..i5). Under the EV8 choice, mixing 4
 * history bits with 2 address bits spreads accesses uniformly over the
 * 64 wordlines; under AddressOnly, the wordline is pure PC bits
 * [reconstructed: a15..a12 + a8, a7], whose clustered distribution in
 * real code is precisely what made this variant lose (Fig. 9).
 */
unsigned
wordlineBits(const Ev8IndexInput &in, WordlineMode mode)
{
    if (mode == WordlineMode::Ev8) {
        // (i10,i9,i8,i7,i6,i5) = (h3, h2, h1, h0, a8, a7)   [published]
        return (h(in, 3) << 5) | (h(in, 2) << 4) | (h(in, 1) << 3)
            | (h(in, 0) << 2) | (a(in, 8) << 1) | a(in, 7);
    }
    return (a(in, 15) << 5) | (a(in, 14) << 4) | (a(in, 13) << 3)
        | (a(in, 12) << 2) | (a(in, 8) << 1) | a(in, 7);
}

/** BIM column (i13,i12,i11) = (a11, a10^z5, a9^z6)  [reconstructed]. */
unsigned
columnBIM(const Ev8IndexInput &in)
{
    return (a(in, 11) << 2) | ((a(in, 10) ^ z(in, 5)) << 1)
        | (a(in, 9) ^ z(in, 6));
}

/**
 * G0 column. i15, i14 are shared with Meta [published]; i13..i11 are
 * [reconstructed] single-XOR pairs chosen, per the Section 7.5
 * principles, from history-bit pairs not used by G1 or Meta.
 */
unsigned
columnG0(const Ev8IndexInput &in)
{
    return ((h(in, 7) ^ h(in, 11)) << 4)     // i15 (= Meta i15)
        | ((h(in, 8) ^ h(in, 12)) << 3)      // i14 (= Meta i14)
        | ((h(in, 10) ^ h(in, 5)) << 2)      // i13 [reconstructed]
        | ((h(in, 12) ^ h(in, 6)) << 1)      // i12 [reconstructed]
        | (h(in, 9) ^ a(in, 10));            // i11 [reconstructed]
}

/** G1 column (i15..i11) = (h19^h12, h18^h11, h17^h10, h16^h4, h15^h20)
 *  [published]. */
unsigned
columnG1(const Ev8IndexInput &in)
{
    return ((h(in, 19) ^ h(in, 12)) << 4) | ((h(in, 18) ^ h(in, 11)) << 3)
        | ((h(in, 17) ^ h(in, 10)) << 2) | ((h(in, 16) ^ h(in, 4)) << 1)
        | (h(in, 15) ^ h(in, 20));
}

/** Meta column (i15..i11) = (h7^h11, h8^h12, h5^h13, h4^h9, a9^h6)
 *  [published]. */
unsigned
columnMeta(const Ev8IndexInput &in)
{
    return ((h(in, 7) ^ h(in, 11)) << 4) | ((h(in, 8) ^ h(in, 12)) << 3)
        | ((h(in, 5) ^ h(in, 13)) << 2) | ((h(in, 4) ^ h(in, 9)) << 1)
        | (a(in, 9) ^ h(in, 6));
}

/**
 * BIM unshuffle parameter: the branch offset is permuted by
 * (0, z5, z6) [reconstructed], injecting last-block path information
 * (Section 7.4: "path information from the last instruction fetch
 * block (that is Z) is used").
 */
unsigned
unshuffleBIM(const Ev8IndexInput &in)
{
    return (0u << 2) | (z(in, 5) << 1) | z(in, 6);
}

/**
 * G0 unshuffle parameter. u1 and u0 follow the published i3/i2 terms
 * (a11^h9^h10^h12^z6^a5 and a14^a10^h6^h4^h7^a6); u2 is
 * [reconstructed].
 */
unsigned
unshuffleG0(const Ev8IndexInput &in)
{
    const unsigned u2 = a(in, 12) ^ a(in, 9) ^ h(in, 5) ^ h(in, 8)
        ^ h(in, 11) ^ z(in, 5);                       // [reconstructed]
    const unsigned u1 = a(in, 11) ^ h(in, 9) ^ h(in, 10) ^ h(in, 12)
        ^ z(in, 6) ^ a(in, 5);                        // [published]
    const unsigned u0 = a(in, 14) ^ a(in, 10) ^ h(in, 6) ^ h(in, 4)
        ^ h(in, 7) ^ a(in, 6);                        // [published]
    return (u2 << 2) | (u1 << 1) | u0;
}

/**
 * G1 unshuffle parameter [published]. The deepest XOR tree of the
 * design: Section 8.5 notes 11 information bits feed one unshuffle bit
 * of G1 (u0 below).
 */
unsigned
unshuffleG1(const Ev8IndexInput &in)
{
    const unsigned u2 = h(in, 9) ^ h(in, 14) ^ h(in, 15) ^ h(in, 16)
        ^ z(in, 6);
    const unsigned u1 = a(in, 11) ^ a(in, 14) ^ a(in, 6) ^ h(in, 4)
        ^ h(in, 6) ^ a(in, 10) ^ a(in, 13) ^ h(in, 5) ^ h(in, 11)
        ^ h(in, 13) ^ h(in, 18) ^ h(in, 19) ^ h(in, 20) ^ z(in, 5);
    const unsigned u0 = a(in, 5) ^ a(in, 9) ^ h(in, 4) ^ h(in, 8)
        ^ h(in, 7) ^ h(in, 10) ^ h(in, 12) ^ h(in, 13) ^ h(in, 14)
        ^ h(in, 17);
    return (u2 << 2) | (u1 << 1) | u0;
}

/** Meta unshuffle parameter [published]. */
unsigned
unshuffleMeta(const Ev8IndexInput &in)
{
    const unsigned u2 = a(in, 10) ^ a(in, 5) ^ h(in, 7) ^ h(in, 10)
        ^ h(in, 14) ^ h(in, 13) ^ z(in, 5);
    const unsigned u1 = a(in, 12) ^ a(in, 14) ^ a(in, 6) ^ h(in, 4)
        ^ h(in, 6) ^ h(in, 8) ^ h(in, 14);
    const unsigned u0 = a(in, 9) ^ a(in, 11) ^ a(in, 13) ^ h(in, 5)
        ^ h(in, 9) ^ h(in, 11) ^ h(in, 12) ^ z(in, 6);
    return (u2 << 2) | (u1 << 1) | u0;
}

} // namespace

Ev8WordCoords
ev8WordCoords(TableId table, const Ev8IndexInput &in, WordlineMode mode)
{
    Ev8WordCoords coords;
    coords.bank = in.bank & 0x3;
    coords.wordline = wordlineBits(in, mode);
    switch (table) {
      case BIM:
        coords.column = columnBIM(in);
        coords.unshuffle = unshuffleBIM(in);
        break;
      case G0:
        coords.column = columnG0(in);
        coords.unshuffle = unshuffleG0(in);
        break;
      case G1:
        coords.column = columnG1(in);
        coords.unshuffle = unshuffleG1(in);
        break;
      case META:
        coords.column = columnMeta(in);
        coords.unshuffle = unshuffleMeta(in);
        break;
      default:
        assert(false && "bad table id");
    }
    return coords;
}

size_t
ev8EntryIndex(TableId table, const Ev8IndexInput &in, uint64_t branch_pc,
              WordlineMode mode)
{
    const Ev8WordCoords c = ev8WordCoords(table, in, mode);
    return ev8FlatIndex(c, ev8BitOffset(branch_pc, c.unshuffle));
}

Ev8IndexTables
Ev8IndexTables::build(WordlineMode mode)
{
    // The image of one input bit: its four flat indices (bank 0, pc 0)
    // packed 16 bits per table.
    auto image = [mode](uint64_t Ev8IndexInput::*field, unsigned pos) {
        Ev8IndexInput in;
        in.*field = uint64_t{1} << pos;
        uint64_t packed = 0;
        for (unsigned t = 0; t < kNumTables; ++t) {
            packed |= static_cast<uint64_t>(ev8EntryIndex(
                          static_cast<TableId>(t), in, 0, mode))
                << (16 * t);
        }
        return packed;
    };
    // The input bytes, in the order ev8EntryIndices() reads them.
    struct Slice
    {
        uint64_t Ev8IndexInput::*field;
        unsigned firstBit;
    };
    const std::array<Slice, kABytes + kHBytes + kZBytes> slices{{
        {&Ev8IndexInput::blockAddr, 0},
        {&Ev8IndexInput::blockAddr, 8},
        {&Ev8IndexInput::hist, 0},
        {&Ev8IndexInput::hist, 8},
        {&Ev8IndexInput::hist, 16},
        {&Ev8IndexInput::zAddr, 0},
    }};

    Ev8IndexTables tables;
    for (size_t k = 0; k < slices.size(); ++k) {
        std::array<uint64_t, 8> bits{};
        for (unsigned j = 0; j < 8; ++j)
            bits[j] = image(slices[k].field, slices[k].firstBit + j);
        // Linearity: a byte's image is the XOR of its set bits' images.
        for (unsigned b = 1; b < 256; ++b) {
            tables.lut[k][b] =
                tables.lut[k][b & (b - 1)] ^ bits[std::countr_zero(b)];
        }
    }
    return tables;
}

} // namespace ev8
