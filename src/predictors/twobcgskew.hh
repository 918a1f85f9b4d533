/**
 * @file
 * The hybrid skewed branch predictor 2Bc-gskew (Seznec & Michaud [19]),
 * in its unconstrained "academic" form: the reference design the EV8
 * predictor is derived from, and the configuration vehicle for most of
 * the paper's evaluation (Figs. 5, 6, 8, 10).
 *
 * Four banks of 2-bit counters (Section 4.1):
 *   BIM  -- bimodal, address-indexed; also the third e-gskew bank;
 *   G0   -- e-gskew bank, skew-indexed with a medium history;
 *   G1   -- e-gskew bank, skew-indexed with a longer history;
 *   Meta -- metapredictor choosing BIM vs. the e-gskew majority vote.
 *
 * The three design degrees of freedom the paper exploits are all
 * configurable here: per-table history lengths (Section 4.5), per-table
 * prediction sizes (Section 4.6), and hysteresis arrays smaller than
 * prediction arrays (Sections 4.3-4.4).
 */

#ifndef EV8_PREDICTORS_TWOBCGSKEW_HH
#define EV8_PREDICTORS_TWOBCGSKEW_HH

#include <array>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "predictors/gskew_policy.hh"
#include "predictors/predictor.hh"
#include "predictors/tables.hh"

namespace ev8
{

/** Per-table geometry and history length. */
struct TableGeometry
{
    unsigned log2Pred = 0;  //!< log2 of prediction entries
    unsigned log2Hyst = 0;  //!< log2 of hysteresis entries (<= log2Pred)
    unsigned histLen = 0;   //!< history bits consumed by the index
};

/** Full 2Bc-gskew configuration. */
struct TwoBcGskewConfig
{
    std::array<TableGeometry, kNumTables> tables{};
    bool partialUpdate = true; //!< Section 4.2 policy (vs. total update)

    /**
     * Hash the last-three-fetch-block path registers (hist.pathZ/Y/X)
     * into the indices, alongside the history. Off for the paper's
     * conventional-ghist experiments (Figs. 5/6/10); on for the EV8
     * information vector (Section 5.2), where path information from the
     * three blocks missing from the aged lghist recovers most of the
     * aging loss -- this is the "complete hash" reference of Fig. 9.
     */
    bool usePathInfo = false;

    std::string label;         //!< short name for reports

    /**
     * Four equal banks of 2^log2_entries counters, full-size hysteresis:
     * the "academic" baseline of Fig. 5 (e.g. 4*64K entries = 512 Kbits).
     * History lengths are given per table: BIM conventionally 0, medium
     * G0, medium Meta, long G1.
     */
    static TwoBcGskewConfig symmetric(unsigned log2_entries,
                                      unsigned h_bim, unsigned h_g0,
                                      unsigned h_meta, unsigned h_g1,
                                      const std::string &label);

    /**
     * The EV8-budget logical configuration of Table 1 (352 Kbits total):
     * BIM 16K/16K h4, G0 64K/32K h13, G1 64K/64K h21, Meta 64K/32K h15.
     * (This is the *logical* predictor; hardware index-function
     * constraints live in src/core.)
     */
    static TwoBcGskewConfig ev8Size();

    /** Total memorization bits. */
    uint64_t storageBits() const;
};

/**
 * The working predictor. Indexing uses the skewed-cache hash family of
 * [17] over the full (address, history) information vector -- the
 * "complete hash" reference of Fig. 9. The history consumed is
 * hist.indexHist, so the same class serves conventional-ghist and
 * lghist experiments; the simulator decides what that register holds.
 */
class TwoBcGskewPredictor final : public ConditionalBranchPredictor
{
  public:
    explicit TwoBcGskewPredictor(const TwoBcGskewConfig &config);

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;

    uint64_t storageBits() const override;
    std::string name() const override;
    VoteSnapshot lastVotes() const override;
    void publishMetrics(MetricRegistry &registry,
                        const std::string &prefix) const override;

    const TwoBcGskewConfig &config() const { return cfg; }

    /** Accumulated per-bank vote/conflict tallies. */
    const GskewVoteStats &voteStats() const { return stats; }

    /** Per-table index for a snapshot (exposed for tests). */
    size_t tableIndex(TableId table, const BranchSnapshot &snap) const;

    /**
     * Shared-index group stepper for the fused kernel: one instance
     * drives every 2Bc-gskew lane of a fused job through one branch at
     * a time. All lanes of a group see the same BranchSnapshot, so the
     * group computes each distinct (table, fold kind, index width)
     * address term and each distinct (table, width, history length)
     * history term once per branch, instead of once per lane. Address
     * terms -- the XOR-fold of (pc ^ path-fold) and its H^table chain
     * -- are linear over GF(2): the group keeps each static branch's pc
     * terms in a table keyed by pc and XORs in the path-fold terms,
     * recomputed only when the fold moves. History terms run scalar,
     * or four slots at a time on AVX2 (fused_vec.hh).
     *
     * Each lane then composes its four indices from the slot terms and
     * takes one tabulated policy step (gskewStep() over kGskewPolicy):
     * read the eight prediction and hysteresis bits, one table load,
     * XOR the flips back. Metrics-observed walks count each lane's step
     * keys in a histogram, folded into its GskewVoteStats when the
     * group is destroyed. Table transitions and statistics are exactly
     * those of a per-lane predict(); update() pair.
     */
    class FusedGroup
    {
      public:
        FusedGroup(TwoBcGskewPredictor *const *preds, size_t nlanes);

        FusedGroup(const FusedGroup &) = delete;
        FusedGroup &operator=(const FusedGroup &) = delete;

        //! Folds the metrics-observed lanes' key histograms into their
        //! GskewVoteStats.
        ~FusedGroup();

        /** Advances every lane over one branch; tallies into misp[l]. */
        void step(const BranchSnapshot &snap, bool taken, uint64_t *misp);

        /** H^@p table of (@p addr >> 2) XOR-folded to @p n bits: the
         *  address half of skewIndex() (addressIndex() for BIM). */
        static uint64_t addressTerm(unsigned table, unsigned n,
                                    uint64_t addr);

        /** Rows of the direct-mapped address-term table. The suite
         *  has 31-1679 static branches per benchmark; 1024 rows hit on
         *  97.1% (vortex) to 100% of branches, and 2048 would add at
         *  most 1.6 points for twice the footprint. */
        static constexpr size_t kAddrRows = 1024;

        /** The address-term table row of branch @p pc. */
        static constexpr size_t
        addrRow(uint64_t pc)
        {
            return (pc >> 2) & (kAddrRows - 1);
        }

      private:
        /** One distinct address-side index term H^table(fold(addr)). */
        struct AddrSlot
        {
            uint8_t table;    //!< H-chain length (the bank's bijection)
            uint8_t foldKind; //!< 0 = none, 1 = BIM path, 2 = gskew path
            uint8_t n;        //!< index width in bits
        };

        /** One distinct history-side index term H'^table(fold(hist)). */
        struct HistSlot
        {
            uint8_t table; //!< H'-chain length
            uint8_t n;     //!< index width in bits
            uint8_t len;   //!< history bits consumed (0 = constant 0)
        };

        /** One lane: its predictor, its bitplanes and its subscripts
         *  into the slot values, per table. */
        struct Lane
        {
            TwoBcGskewPredictor *pred;
            std::array<uint64_t *, kNumTables> predWords;
            std::array<uint64_t *, kNumTables> hystWords;
            //! hystSize - 1: the Section 4.4 sharing mask
            std::array<uint64_t, kNumTables> hystMask;
            std::array<uint16_t, kNumTables> addr;
            std::array<uint16_t, kNumTables> hist;
            unsigned outcomeKey; //!< gskewOutcomeKey(false, partial)
        };

        uint16_t addrSlot(uint8_t table, uint8_t fold_kind, uint8_t n);
        uint16_t histSlot(uint8_t table, uint8_t n, uint8_t len);

        /** The address terms of @p snap, one per address slot: the
         *  pc's row (filled on a miss), XORed with the fold terms into
         *  aVal_ when a lane uses path information. */
        const uint32_t *addrTerms(const BranchSnapshot &snap);

        /** The history terms, one at a time (EV8_SIMD=0). */
        void histScalar(const BranchSnapshot &snap);

        /**
         * The history terms four at a time, templated over a simd.hh
         * vector type. Defined in fused_vec.hh; instantiated only by
         * the -mavx2 translation unit fused_vec_avx2.cc, which exposes
         * it through the out-of-line entry point below so no intrinsic
         * code leaks into TUs built without -mavx2.
         */
        template <class Vec>
        void histVec(const BranchSnapshot &snap);
        void histVecAvx2(const BranchSnapshot &snap);

        /** Builds the padded SoA constants histVec() consumes. */
        void buildVectorState();

        /** The per-lane policy steps, with or without key counting. */
        template <bool kStats>
        void stepLanes(const uint32_t *addr_terms,
                       const BranchSnapshot &snap, bool taken,
                       uint64_t *misp);

        std::vector<Lane> lanes_;
        std::vector<uint8_t> statsOn_;
        bool anyStats_ = false;
        //! Per lane, the walk's step keys (metrics-observed walks).
        std::vector<GskewKeyHistogram> keyHist_;
        std::vector<AddrSlot> addrSlots_;
        std::vector<HistSlot> histSlots_;
        //! The history terms, recomputed every step() (padded to the
        //! vector width when the AVX2 path runs).
        std::vector<uint64_t> hVal_;
        std::vector<uint32_t> aVal_; //!< path-fold groups' address terms

        //! The address-term table: per row, the pc it holds and that
        //! pc's term per address slot. A fresh row's tag maps to
        //! another row, so no pc hits it before it is filled.
        std::vector<uint64_t> addrTag_;
        std::vector<uint32_t> addrPcTerm_;

        //! Group-level path-fold cache, mirroring lookup()'s: the path
        //! registers move once per fetch block, and they are shared by
        //! the whole group. foldTerm_ is each address slot's
        //! addressTerm() of its fold (0 without one). A fold term is
        //! linear in the fold, whose address bits span at most 24 (the
        //! gskew path word), so foldLut_ holds each slot's term of
        //! every value of each of those six nibbles: a block's terms
        //! cost six lookups per slot, not a fold and an H chain.
        static constexpr unsigned kFoldNibbles = 6;
        bool anyPathInfo_ = false;
        uint64_t pathZ_ = 0, pathY_ = 0, pathX_ = 0;
        std::vector<uint32_t> foldTerm_;
        std::vector<std::array<std::array<uint32_t, 16>, kFoldNibbles>>
            foldLut_;

        //! Per-walk backend choice (simd::activeBackend: EV8_SIMD /
        //! cpuid), made once in the constructor so in-process env
        //! overrides take effect.
        simd::Backend backend_ = simd::Backend::Off;

        // ---- AVX2 history staging (built when backend_ != Off),
        // every array padded to a multiple of the vector width: the
        // slot constants (index width n, its chain companions, the
        // n-bit and history-length masks, all-ones masks per H'-chain
        // round) splatted to one uint64_t per slot so the fold and
        // chain loops run as unconditional masked vector arithmetic.
        size_t paddedHist_ = 0;
        std::vector<uint64_t> hN_, hNm1_, hNm2_, hMask_, hLenMask_;
        std::array<std::vector<uint64_t>, 3> hChain_;
    };

    /** Direct bank access for white-box tests. */
    const SplitCounterArray &bank(TableId table) const
    {
        return banksStorage[table];
    }

  private:
    /** Adapter giving the shared policy its Banks interface. */
    struct BankFacade
    {
        std::array<SplitCounterArray, kNumTables> &arrays;

        bool
        taken(TableId t, size_t idx) const
        {
            return arrays[t].taken(idx);
        }
        void strengthen(TableId t, size_t idx) { arrays[t].strengthen(idx); }
        void update(TableId t, size_t idx, bool v)
        {
            arrays[t].update(idx, v);
        }
    };

    /** Read-only adapter for lookup(): the vote pass only reads. */
    struct ConstBankFacade
    {
        const std::array<SplitCounterArray, kNumTables> &arrays;

        bool
        taken(TableId t, size_t idx) const
        {
            return arrays[t].taken(idx);
        }
    };

    /** The per-block BIM path fold of tableIndex() (Section 7.4). */
    static uint64_t bimPathFold(const HistoryView &hist);

    /** The per-block gskew path fold of tableIndex() (Section 5.2). */
    static uint64_t gskewPathFold(const HistoryView &hist);

    /** tableIndex() with the path fold already computed. */
    size_t foldedIndex(TableId table, const BranchSnapshot &snap,
                       uint64_t fold) const;

    GskewLookup lookup(const BranchSnapshot &snap);

    TwoBcGskewConfig cfg;
    std::array<SplitCounterArray, kNumTables> banksStorage;
    GskewLookup last; //!< cached between predict() and update()
    unsigned lastKey_ = 0; //!< the last vote pass's key, for lastVotes()
    GskewVoteStats stats;

    /**
     * The path registers only change once per fetch block, so the two
     * index folds derived from them are cached here and recomputed only
     * when the registers move -- every branch of a block shares them.
     * Initial values match all-zero path registers (fold 0).
     */
    uint64_t cachedPathZ = 0, cachedPathY = 0, cachedPathX = 0;
    uint64_t cachedBimFold = 0, cachedGskewFold = 0;

#ifndef NDEBUG
    uint64_t lastPc = 0;        //!< predict() inputs, for update()'s
    uint64_t lastIndexHist = 0; //!< immediate-update contract check
#endif
};

} // namespace ev8

#endif // EV8_PREDICTORS_TWOBCGSKEW_HH
