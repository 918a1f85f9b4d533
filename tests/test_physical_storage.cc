/**
 * @file
 * Tests for the physical banked-array model of Section 7.1.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/physical_storage.hh"
#include "frontend/bank_scheduler.hh"

namespace ev8
{
namespace
{

TEST(PhysicalStorage, TotalBudgetIs352Kbits)
{
    // 208 Kbits prediction + 144 Kbits hysteresis (Section 4.7).
    EXPECT_EQ(Ev8PhysicalStorage::storageBits(), 352u * 1024);
    uint64_t pred = 0, hyst = 0;
    for (unsigned t = 0; t < kNumTables; ++t) {
        const auto id = static_cast<TableId>(t);
        pred += uint64_t{4} * kEv8Wordlines * ev8PredColumns(id) * 8;
        hyst += uint64_t{4} * kEv8Wordlines * ev8HystColumns(id) * 8;
    }
    EXPECT_EQ(pred, 208u * 1024);
    EXPECT_EQ(hyst, 144u * 1024);
}

TEST(PhysicalStorage, GeometryMatchesSection71)
{
    // Each wordline: 32 8-bit words for G0/G1/Meta, 8 for BIM.
    EXPECT_EQ(ev8PredColumns(BIM), 8u);
    EXPECT_EQ(ev8PredColumns(G0), 32u);
    EXPECT_EQ(ev8PredColumns(G1), 32u);
    EXPECT_EQ(ev8PredColumns(META), 32u);
    // Hysteresis: half columns for G0 and Meta (Table 1).
    EXPECT_EQ(ev8HystColumns(BIM), 8u);
    EXPECT_EQ(ev8HystColumns(G0), 16u);
    EXPECT_EQ(ev8HystColumns(G1), 32u);
    EXPECT_EQ(ev8HystColumns(META), 16u);
}

TEST(PhysicalStorage, InitialStateIsWeaklyNotTaken)
{
    Ev8PhysicalStorage arrays;
    const Ev8WordCoords c{1, 10, 3, 0};
    for (TableId t : {BIM, G0, G1, META}) {
        EXPECT_FALSE(arrays.readPredBit(t, c, 0));
        EXPECT_TRUE(arrays.readHystBit(t, c, 0));
    }
}

TEST(PhysicalStorage, ReadWriteRoundtrip)
{
    Ev8PhysicalStorage arrays;
    const Ev8WordCoords c{2, 33, 17, 0};
    arrays.writePredBit(G1, c, 5, true);
    EXPECT_TRUE(arrays.readPredBit(G1, c, 5));
    EXPECT_FALSE(arrays.readPredBit(G1, c, 4));
    arrays.writePredBit(G1, c, 5, false);
    EXPECT_FALSE(arrays.readPredBit(G1, c, 5));

    arrays.writeHystBit(G1, c, 3, false);
    EXPECT_FALSE(arrays.readHystBit(G1, c, 3));
    EXPECT_TRUE(arrays.readHystBit(G1, c, 2));
}

TEST(PhysicalStorage, CellsAreIndependent)
{
    Ev8PhysicalStorage arrays;
    arrays.writePredBit(G0, {0, 0, 0, 0}, 0, true);
    EXPECT_FALSE(arrays.readPredBit(G0, {0, 0, 1, 0}, 0));
    EXPECT_FALSE(arrays.readPredBit(G0, {0, 1, 0, 0}, 0));
    EXPECT_FALSE(arrays.readPredBit(G0, {1, 0, 0, 0}, 0));
    EXPECT_FALSE(arrays.readPredBit(G0, {0, 0, 0, 0}, 1));
    EXPECT_FALSE(arrays.readPredBit(G1, {0, 0, 0, 0}, 0));
}

TEST(PhysicalStorage, ReadPredWordGathersEightBits)
{
    Ev8PhysicalStorage arrays;
    const Ev8WordCoords c{3, 63, 31, 0};
    arrays.writePredBit(META, c, 0, true);
    arrays.writePredBit(META, c, 7, true);
    EXPECT_EQ(arrays.readPredWord(META, c), 0x81);
}

TEST(PhysicalStorage, HysteresisSharingDropsColumnMsb)
{
    // For G0 and Meta, prediction columns c and c+16 share one
    // hysteresis entry (Section 4.4: same index minus its MSB).
    Ev8PhysicalStorage arrays;
    const Ev8WordCoords low{1, 5, 7, 0};
    const Ev8WordCoords high{1, 5, 7 + 16, 0};
    arrays.writeHystBit(G0, low, 2, false);
    EXPECT_FALSE(arrays.readHystBit(G0, high, 2))
        << "G0 columns 16 apart must share hysteresis";
    arrays.writeHystBit(META, high, 4, false);
    EXPECT_FALSE(arrays.readHystBit(META, low, 4));

    // G1 and BIM hysteresis are full size: no sharing.
    Ev8PhysicalStorage fresh;
    fresh.writeHystBit(G1, low, 2, false);
    EXPECT_TRUE(fresh.readHystBit(G1, high, 2));
}

TEST(PhysicalStorage, FlatAndCoordinateAccessorsAddressTheSameBit)
{
    // Flat order is a bijection with (bank, wordline, column, bit): a
    // bit written through one accessor family reads back through the
    // other, and through no other flat index.
    Rng rng(11);
    for (TableId t : {BIM, G0, G1, META}) {
        for (int i = 0; i < 200; ++i) {
            const Ev8WordCoords c{
                unsigned(rng.below(4)), unsigned(rng.below(kEv8Wordlines)),
                unsigned(rng.below(ev8PredColumns(t))), 0};
            const unsigned bitpos = unsigned(rng.below(8));
            const size_t idx = ev8FlatIndex(c, bitpos);
            ASSERT_LT(idx, Ev8PhysicalStorage::predEntries(t));

            Ev8PhysicalStorage arrays;
            arrays.writePredBit(t, c, bitpos, true);
            EXPECT_TRUE(arrays.readPred(t, idx));
            EXPECT_FALSE(arrays.readPred(t, idx ^ 1));
            arrays.writePred(t, idx, false);
            EXPECT_FALSE(arrays.readPredBit(t, c, bitpos));

            arrays.writeHyst(t, idx, false);
            EXPECT_FALSE(arrays.readHystBit(t, c, bitpos));
            EXPECT_TRUE(arrays.readHystBit(t, c, bitpos ^ 1));
            arrays.writeHystBit(t, c, bitpos, true);
            EXPECT_TRUE(arrays.readHyst(t, idx));
        }
    }
}

TEST(PhysicalStorage, FlatHysteresisSharedAcrossIndexMsb)
{
    // G0 and Meta: idx and idx ^ (1 << 15) -- the column MSB i15 --
    // share one hysteresis bit but not their prediction bits. BIM and
    // G1 hysteresis arrays are full size.
    Rng rng(12);
    for (int i = 0; i < 200; ++i) {
        const size_t low = rng.below(size_t{1} << 15);
        const size_t high = low ^ (size_t{1} << 15);
        for (TableId t : {G0, META}) {
            Ev8PhysicalStorage arrays;
            arrays.writeHyst(t, high, false);
            EXPECT_FALSE(arrays.readHyst(t, low));
            arrays.writePred(t, high, true);
            EXPECT_FALSE(arrays.readPred(t, low));
        }
        Ev8PhysicalStorage arrays;
        arrays.writeHyst(G1, high, false);
        EXPECT_TRUE(arrays.readHyst(G1, low));
    }
    EXPECT_EQ(Ev8PhysicalStorage::hystEntries(G0), size_t{1} << 15);
    EXPECT_EQ(Ev8PhysicalStorage::hystEntries(META), size_t{1} << 15);
    EXPECT_EQ(Ev8PhysicalStorage::hystEntries(G1), size_t{1} << 16);
    EXPECT_EQ(Ev8PhysicalStorage::hystEntries(BIM), size_t{1} << 14);
}

TEST(PhysicalStorage, TalliesCountOneAccessPerCall)
{
    // The storage.* counters: one count per read or write call, and a
    // wordline histogram over prediction reads, whichever accessor
    // family made the access.
    Ev8PhysicalStorage arrays;
    const Ev8WordCoords c{2, 37, 9, 0};
    const size_t idx = ev8FlatIndex(c, 5);
    arrays.readPred(G1, idx); // untracked
    arrays.setTracking(true);
    arrays.readPred(G1, idx);
    arrays.readPredBit(G1, c, 3);
    arrays.readPredWord(G1, c);
    arrays.writePred(G1, idx, true);
    arrays.readHystBit(G1, c, 5);
    arrays.writeHyst(G1, idx, false);
    arrays.writeHystBit(G1, c, 1, false);

    const auto &s = arrays.accessStats(G1);
    EXPECT_EQ(s.predReads, 3u);
    EXPECT_EQ(s.predWrites, 1u);
    EXPECT_EQ(s.hystReads, 1u);
    EXPECT_EQ(s.hystWrites, 2u);
    EXPECT_EQ(arrays.wordlineReads(G1)[37], 3u);
    uint64_t total = 0;
    for (TableId t : {BIM, G0, G1, META}) {
        for (const uint64_t n : arrays.wordlineReads(t))
            total += n;
    }
    EXPECT_EQ(total, 3u);
    EXPECT_EQ(arrays.accessStats(G0).predReads, 0u);
}

TEST(SinglePortChecker, DetectsSecondAccessToSameBank)
{
    SinglePortChecker checker;
    checker.beginCycle();
    EXPECT_TRUE(checker.access(0));
    EXPECT_TRUE(checker.access(1));
    EXPECT_FALSE(checker.access(0)) << "single-ported cell re-accessed";
    checker.beginCycle();
    EXPECT_TRUE(checker.access(0));
}

TEST(SinglePortChecker, BankSchedulerStreamIsAlwaysClean)
{
    // The integration of Sections 6.2 and 7.1: banks assigned by the
    // scheduler, two blocks per cycle, never a port conflict.
    SinglePortChecker checker;
    Rng rng(99);
    unsigned prev_bank = 99;
    for (int cycle = 0; cycle < 20000; ++cycle) {
        checker.beginCycle();
        for (int slot = 0; slot < 2; ++slot) {
            const unsigned y65 = unsigned(rng.below(4));
            const unsigned bank = computeBankNumber(
                uint64_t{y65} << 5, prev_bank == 99 ? 0 : prev_bank);
            ASSERT_TRUE(checker.access(bank));
            prev_bank = bank;
        }
    }
}

} // namespace
} // namespace ev8
