/**
 * @file
 * Tests for the Section 7 EV8 index functions: hand-checked examples
 * from the published equations, plus structural property tests of the
 * hardware constraints (shared unhashed wordline, single-2-input-XOR
 * column bits, XOR unshuffle permutation).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bits.hh"
#include "common/random.hh"
#include "core/index_functions.hh"

namespace ev8
{
namespace
{

Ev8IndexInput
input(uint64_t a = 0, uint64_t h = 0, uint64_t z = 0, unsigned bank = 0)
{
    return Ev8IndexInput{a, h, z, bank};
}

// ---------------------------------------------------------------------
// Hand-checked samples of the published equations.
// ---------------------------------------------------------------------

TEST(Wordline, Ev8IsH3H2H1H0A8A7)
{
    // (i10..i5) = (h3, h2, h1, h0, a8, a7).
    auto wl = [](const Ev8IndexInput &in) {
        return ev8WordCoords(G1, in, WordlineMode::Ev8).wordline;
    };
    EXPECT_EQ(wl(input(0, 0, 0)), 0u);
    EXPECT_EQ(wl(input(0, 0b1000, 0)), 32u); // h3 -> top wordline bit
    EXPECT_EQ(wl(input(0, 0b0100, 0)), 16u); // h2
    EXPECT_EQ(wl(input(0, 0b0010, 0)), 8u);  // h1
    EXPECT_EQ(wl(input(0, 0b0001, 0)), 4u);  // h0
    EXPECT_EQ(wl(input(0x100, 0, 0)), 2u);   // a8
    EXPECT_EQ(wl(input(0x080, 0, 0)), 1u);   // a7
    EXPECT_EQ(wl(input(0x180, 0b1111, 0)), 63u);
}

TEST(Wordline, SharedByAllFourTables)
{
    Rng rng(1);
    for (int i = 0; i < 500; ++i) {
        const auto in = input(rng.next(), rng.next(), rng.next(),
                              unsigned(rng.below(4)));
        const unsigned wl =
            ev8WordCoords(BIM, in, WordlineMode::Ev8).wordline;
        for (TableId t : {G0, G1, META}) {
            EXPECT_EQ(ev8WordCoords(t, in, WordlineMode::Ev8).wordline,
                      wl);
        }
    }
}

TEST(Wordline, AddressOnlyModeIgnoresHistory)
{
    const auto a = input(0xdead00, 0x00000, 0);
    const auto b = input(0xdead00, 0x1ffff, 0);
    EXPECT_EQ(ev8WordCoords(G0, a, WordlineMode::AddressOnly).wordline,
              ev8WordCoords(G0, b, WordlineMode::AddressOnly).wordline);
    EXPECT_NE(ev8WordCoords(G0, a, WordlineMode::Ev8).wordline,
              ev8WordCoords(G0, b, WordlineMode::Ev8).wordline);
}

TEST(Column, G1MatchesPublishedEquation)
{
    // (i15..i11) = (h19^h12, h18^h11, h17^h10, h16^h4, h15^h20).
    auto col = [](uint64_t h) {
        return ev8WordCoords(G1, input(0, h, 0), WordlineMode::Ev8)
            .column;
    };
    EXPECT_EQ(col(0), 0u);
    EXPECT_EQ(col(1ull << 19), 16u);
    EXPECT_EQ(col(1ull << 12), 16u);
    EXPECT_EQ(col((1ull << 19) | (1ull << 12)), 0u); // XOR cancels
    EXPECT_EQ(col(1ull << 18), 8u);
    EXPECT_EQ(col(1ull << 11), 8u);
    EXPECT_EQ(col(1ull << 17), 4u);
    EXPECT_EQ(col(1ull << 10), 4u);
    EXPECT_EQ(col(1ull << 16), 2u);
    EXPECT_EQ(col(1ull << 4), 2u);
    EXPECT_EQ(col(1ull << 15), 1u);
    EXPECT_EQ(col(1ull << 20), 1u);
}

TEST(Column, MetaMatchesPublishedEquation)
{
    // (i15..i11) = (h7^h11, h8^h12, h5^h13, h4^h9, a9^h6).
    auto col = [](uint64_t a, uint64_t h) {
        return ev8WordCoords(META, input(a, h, 0), WordlineMode::Ev8)
            .column;
    };
    EXPECT_EQ(col(0, 1ull << 7), 16u);
    EXPECT_EQ(col(0, 1ull << 11), 16u);
    EXPECT_EQ(col(0, 1ull << 8), 8u);
    EXPECT_EQ(col(0, 1ull << 12), 8u);
    EXPECT_EQ(col(0, 1ull << 5), 4u);
    EXPECT_EQ(col(0, 1ull << 13), 4u);
    EXPECT_EQ(col(0, 1ull << 4), 2u);
    EXPECT_EQ(col(0, 1ull << 9), 2u);
    EXPECT_EQ(col(1ull << 9, 0), 1u); // a9
    EXPECT_EQ(col(0, 1ull << 6), 1u); // h6
}

TEST(Column, G0SharesTopTwoBitsWithMeta)
{
    // "To simplify the implementation of column selectors, G0 and Meta
    // share i15 and i14."
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const auto in = input(rng.next(), rng.next(), rng.next());
        const unsigned g0 =
            ev8WordCoords(G0, in, WordlineMode::Ev8).column;
        const unsigned meta =
            ev8WordCoords(META, in, WordlineMode::Ev8).column;
        EXPECT_EQ(g0 >> 3, meta >> 3);
    }
}

TEST(Column, BimUsesAddressAndZPath)
{
    // (i13,i12,i11) = (a11, a10^z5, a9^z6)  [reconstructed].
    auto col = [](uint64_t a, uint64_t z) {
        return ev8WordCoords(BIM, input(a, 0, z), WordlineMode::Ev8)
            .column;
    };
    EXPECT_EQ(col(1ull << 11, 0), 4u);
    EXPECT_EQ(col(1ull << 10, 0), 2u);
    EXPECT_EQ(col(0, 1ull << 5), 2u);
    EXPECT_EQ(col(1ull << 9, 0), 1u);
    EXPECT_EQ(col(0, 1ull << 6), 1u);
}

// ---------------------------------------------------------------------
// Structural hardware constraints.
// ---------------------------------------------------------------------

/**
 * Enumerates the input bit positions the functions may consume, as
 * (field, bit) pairs flattened into single-bit input vectors.
 */
struct ProbeBit
{
    enum Field { A, H, Z } field;
    unsigned pos;
};

std::vector<ProbeBit>
probeBits()
{
    std::vector<ProbeBit> bits;
    for (unsigned i = 2; i <= 16; ++i)
        bits.push_back({ProbeBit::A, i});
    for (unsigned i = 0; i <= 20; ++i)
        bits.push_back({ProbeBit::H, i});
    for (unsigned i = 5; i <= 6; ++i)
        bits.push_back({ProbeBit::Z, i});
    return bits;
}

Ev8IndexInput
inputWith(const ProbeBit &probe)
{
    Ev8IndexInput in{};
    const uint64_t v = uint64_t{1} << probe.pos;
    switch (probe.field) {
      case ProbeBit::A: in.blockAddr = v; break;
      case ProbeBit::H: in.hist = v; break;
      case ProbeBit::Z: in.zAddr = v; break;
    }
    return in;
}

class ColumnConstraint : public ::testing::TestWithParam<TableId>
{
};

TEST_P(ColumnConstraint, EachColumnBitUsesAtMostOneTwoEntryXor)
{
    // "computation of the column bits can only use one 2-entry XOR
    // gate": every column bit is a linear function of at most two
    // input bits.
    const TableId table = GetParam();
    const unsigned width = ev8ColumnBits(table);
    const auto probes = probeBits();

    for (unsigned b = 0; b < width; ++b) {
        unsigned deps = 0;
        for (const auto &probe : probes) {
            const unsigned flipped =
                ev8WordCoords(table, inputWith(probe), WordlineMode::Ev8)
                    .column
                ^ ev8WordCoords(table, Ev8IndexInput{},
                                WordlineMode::Ev8)
                      .column;
            deps += (flipped >> b) & 1;
        }
        EXPECT_LE(deps, 2u) << "table " << table << " column bit " << b;
        EXPECT_GE(deps, 1u) << "dead column bit";
    }
}

TEST_P(ColumnConstraint, ColumnIsLinearInInputs)
{
    // The hardware is pure XOR logic: f(x ^ y) = f(x) ^ f(y) ^ f(0).
    const TableId table = GetParam();
    Rng rng(3);
    const auto col = [&](const Ev8IndexInput &in) {
        return ev8WordCoords(table, in, WordlineMode::Ev8).column;
    };
    const unsigned f0 = col(Ev8IndexInput{});
    for (int i = 0; i < 300; ++i) {
        Ev8IndexInput x = input(rng.next(), rng.next() & mask(21),
                                rng.next());
        Ev8IndexInput y = input(rng.next(), rng.next() & mask(21),
                                rng.next());
        Ev8IndexInput xy = input(x.blockAddr ^ y.blockAddr,
                                 x.hist ^ y.hist, x.zAddr ^ y.zAddr);
        EXPECT_EQ(col(xy), col(x) ^ col(y) ^ f0);
    }
}

INSTANTIATE_TEST_SUITE_P(Tables, ColumnConstraint,
                         ::testing::Values(BIM, G0, G1, META));

TEST(Unshuffle, IsAPermutationOfOffsets)
{
    Rng rng(4);
    for (int i = 0; i < 200; ++i) {
        const auto in = input(rng.next(), rng.next(), rng.next());
        for (TableId t : {BIM, G0, G1, META}) {
            const unsigned u =
                ev8WordCoords(t, in, WordlineMode::Ev8).unshuffle;
            bool seen[8] = {};
            for (unsigned offset = 0; offset < 8; ++offset) {
                const unsigned pos = ev8BitOffset(offset << 2, u);
                ASSERT_LT(pos, 8u);
                ASSERT_FALSE(seen[pos]) << "not a permutation";
                seen[pos] = true;
            }
        }
    }
}

TEST(Unshuffle, G1DeepestXorTreeHasElevenInputs)
{
    // Section 8.5: "11 bits are XORed in the unshuffling function on
    // table G1": 10 information bits in the parameter plus the branch's
    // own offset bit.
    const auto probes = probeBits();
    unsigned deps = 0;
    const unsigned u0_base =
        ev8WordCoords(G1, Ev8IndexInput{}, WordlineMode::Ev8).unshuffle
        & 1;
    for (const auto &probe : probes) {
        const unsigned u0 =
            ev8WordCoords(G1, inputWith(probe), WordlineMode::Ev8)
                .unshuffle
            & 1;
        deps += u0 != u0_base;
    }
    EXPECT_EQ(deps + 1, 11u);
}

TEST(EntryIndex, LayoutRoundtrip)
{
    // (i1,i0) bank, (i4..i2) offset, (i10..i5) wordline, rest column.
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const auto in = input(rng.next(), rng.next() & mask(21),
                              rng.next(), unsigned(rng.below(4)));
        const uint64_t branch_pc = in.blockAddr + rng.below(8) * 4;
        for (TableId t : {BIM, G0, G1, META}) {
            const size_t idx =
                ev8EntryIndex(t, in, branch_pc, WordlineMode::Ev8);
            ASSERT_LT(idx, size_t{1} << ev8IndexBits(t));
            const Ev8WordCoords direct =
                ev8WordCoords(t, in, WordlineMode::Ev8);
            EXPECT_EQ(idx & 0x3, direct.bank);
            EXPECT_EQ((idx >> 2) & 0x7,
                      ev8BitOffset(branch_pc, direct.unshuffle));
            EXPECT_EQ((idx >> 5) & 0x3f, direct.wordline);
            EXPECT_EQ(idx >> 11, direct.column);
        }
    }
}

TEST(EntryIndex, BimIs14BitsOthers16)
{
    EXPECT_EQ(ev8IndexBits(BIM), 14u);
    EXPECT_EQ(ev8IndexBits(G0), 16u);
    EXPECT_EQ(ev8IndexBits(G1), 16u);
    EXPECT_EQ(ev8IndexBits(META), 16u);
}

TEST(EntryIndex, BranchesInSameBlockGetDistinctEntries)
{
    // Eight branches of one fetch block must land on the 8 distinct
    // bits of the same word: same word coordinates, distinct offsets.
    const auto in = input(0x120001000ULL, 0x1abcd, 0x120000f80ULL, 2);
    for (TableId t : {BIM, G0, G1, META}) {
        bool seen[8] = {};
        for (unsigned slot = 0; slot < 8; ++slot) {
            const size_t idx = ev8EntryIndex(
                t, in, in.blockAddr + slot * 4, WordlineMode::Ev8);
            const unsigned offset = ev8IndexOffset(idx);
            ASSERT_FALSE(seen[offset]);
            seen[offset] = true;
            // Word-level coordinates identical for all 8.
            EXPECT_EQ(idx & ~size_t{0x1c},
                      ev8EntryIndex(t, in, in.blockAddr, WordlineMode::Ev8)
                          & ~size_t{0x1c});
        }
    }
}

TEST(EntryIndex, HistoryConsumptionMatchesTable1Lengths)
{
    // BIM sees h0..h3 only; G0 h0..h12; Meta h0..h14; G1 h0..h20.
    const auto base = input(0x4321000, 0, 0x7700);
    auto idx = [&](TableId t, uint64_t h) {
        Ev8IndexInput in = base;
        in.hist = h;
        return ev8EntryIndex(t, in, base.blockAddr, WordlineMode::Ev8);
    };
    struct Case { TableId t; unsigned maxBit; };
    for (const Case c : {Case{BIM, 4u}, Case{G0, 13u}, Case{META, 15u},
                         Case{G1, 21u}}) {
        for (unsigned b = 0; b < 21; ++b) {
            const bool moved = idx(c.t, 0) != idx(c.t, 1ull << b);
            if (b < c.maxBit)
                EXPECT_TRUE(moved) << "table " << c.t << " ignores h" << b;
            else
                EXPECT_FALSE(moved)
                    << "table " << c.t << " consumes h" << b
                    << " beyond its history length";
        }
    }
}

// ---------------------------------------------------------------------
// The lookup-table index pass.
// ---------------------------------------------------------------------

TEST(EntryIndices, MatchEntryIndexOnFullWidthInputs)
{
    // Every bit of A, H and Z is random, so an input bit the equations
    // consume but the byte tables do not cover makes the two disagree.
    Rng rng(6);
    for (const WordlineMode mode :
         {WordlineMode::Ev8, WordlineMode::AddressOnly}) {
        for (int i = 0; i < 10000; ++i) {
            const auto in = input(rng.next(), rng.next(), rng.next(),
                                  unsigned(rng.below(4)));
            const uint64_t branch_pc = rng.next();
            const auto idx = ev8EntryIndices(in, branch_pc, mode);
            for (TableId t : {BIM, G0, G1, META}) {
                ASSERT_EQ(idx[t], ev8EntryIndex(t, in, branch_pc, mode))
                    << "table " << t << " mode " << int(mode)
                    << " input " << i;
            }
        }
    }
}

TEST(EntryIndices, EquationsAreLinearWithOnlyBankAndOffsetConstant)
{
    // The premise of the tables: with bank and branch offset zero, the
    // flat index is GF(2)-linear in (A, H, Z), and a zero input leaves
    // only the bank and the branch's own offset bits.
    Rng rng(7);
    for (const WordlineMode mode :
         {WordlineMode::Ev8, WordlineMode::AddressOnly}) {
        for (TableId t : {BIM, G0, G1, META}) {
            for (unsigned bank = 0; bank < 4; ++bank) {
                for (unsigned slot = 0; slot < 8; ++slot) {
                    EXPECT_EQ(ev8EntryIndex(t, input(0, 0, 0, bank),
                                            slot * 4, mode),
                              bank | (slot << 2));
                }
            }
            for (int i = 0; i < 1000; ++i) {
                const auto x = input(rng.next(), rng.next(), rng.next());
                const auto y = input(rng.next(), rng.next(), rng.next());
                const auto xy = input(x.blockAddr ^ y.blockAddr,
                                      x.hist ^ y.hist, x.zAddr ^ y.zAddr);
                ASSERT_EQ(ev8EntryIndex(t, xy, 0, mode),
                          ev8EntryIndex(t, x, 0, mode)
                              ^ ev8EntryIndex(t, y, 0, mode))
                    << "table " << t << " mode " << int(mode);
            }
        }
    }
}

} // namespace
} // namespace ev8
