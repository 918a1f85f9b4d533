/**
 * @file
 * The 2Bc-gskew prediction combination and partial-update policy
 * (Sections 4.1-4.2), shared between the unconstrained
 * TwoBcGskewPredictor and the hardware-constrained Ev8Predictor so the
 * two models cannot drift apart.
 *
 * The Banks type must provide:
 *     bool taken(TableId, size_t idx) const;
 *     void strengthen(TableId, size_t idx);   // hysteresis-only write
 *     void update(TableId, size_t idx, bool taken); // full 2-bit step
 *
 * The production steppers do not run these templates per branch. A
 * step touches one prediction and one hysteresis bit per table, so the
 * whole policy is a function of ten bits: the four prediction bits,
 * the four hysteresis bits, the outcome and the policy. kGskewPolicy
 * tabulates it once, at compile time, by running every such key
 * through the templates below on a one-entry bank, and gskewStep()
 * reads the bits, looks the key up and XORs the flips back. The
 * templates stay the only statement of the policy; the predict() /
 * update() oracles still run them directly.
 */

#ifndef EV8_PREDICTORS_GSKEW_POLICY_HH
#define EV8_PREDICTORS_GSKEW_POLICY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "predictors/predictor.hh"

namespace ev8
{

class MetricRegistry; // obs/metrics.hh

/** Table identifiers, in the paper's order. */
enum TableId : unsigned
{
    BIM = 0,
    G0 = 1,
    G1 = 2,
    META = 3,
    kNumTables = 4,
};

/** One lookup's indices and component votes. */
struct GskewLookup
{
    std::array<size_t, kNumTables> idx{};
    bool bimPred = false;
    bool g0Pred = false;
    bool g1Pred = false;
    bool metaPred = false; //!< true: the e-gskew majority is selected
    bool majority = false;
    bool overall = false;
};

/** Fills the vote fields of @p look from the current bank contents. */
template <typename Banks>
constexpr void
computeGskewVotes(const Banks &banks, GskewLookup &look)
{
    look.bimPred = banks.taken(BIM, look.idx[BIM]);
    look.g0Pred = banks.taken(G0, look.idx[G0]);
    look.g1Pred = banks.taken(G1, look.idx[G1]);
    look.metaPred = banks.taken(META, look.idx[META]);
    look.majority = (static_cast<int>(look.bimPred) + look.g0Pred
                     + look.g1Pred) >= 2;
    look.overall = look.metaPred ? look.majority : look.bimPred;
}

/**
 * Per-bank vote bookkeeping shared by the 2Bc-gskew-family predictors
 * (unconstrained, EV8-constrained). Fed once per update() from the
 * cached GskewLookup; published into a MetricRegistry on demand.
 *
 * Per voting bank (BIM/G0/G1): a "conflict" is a vote against the
 * resolved outcome -- the direct symptom of destructive table aliasing;
 * "agree" counts votes matching the overall prediction. For META the
 * same fields mean: conflict = the chooser selected the component that
 * turned out wrong, agree = it selected the correct one.
 */
struct GskewVoteStats
{
    struct PerBank
    {
        uint64_t lookups = 0;
        uint64_t conflicts = 0;
        uint64_t agree = 0;
    };

    std::array<PerBank, kNumTables> bank{};
    uint64_t updates = 0;
    uint64_t unanimous = 0;        //!< BIM, G0, G1 all voted alike
    uint64_t metaSelectsGskew = 0; //!< chooser picked the majority side
    uint64_t mispredicts = 0;

    /** Notes @p n updates that all saw @p look and @p taken. */
    void
    note(const GskewLookup &look, bool taken, uint64_t n = 1)
    {
        updates += n;
        PerBank &bb = bank[BIM];
        bb.lookups += n;
        bb.conflicts += n * (look.bimPred != taken);
        bb.agree += n * (look.bimPred == look.overall);
        PerBank &b0 = bank[G0];
        b0.lookups += n;
        b0.conflicts += n * (look.g0Pred != taken);
        b0.agree += n * (look.g0Pred == look.overall);
        PerBank &b1 = bank[G1];
        b1.lookups += n;
        b1.conflicts += n * (look.g1Pred != taken);
        b1.agree += n * (look.g1Pred == look.overall);
        PerBank &bm = bank[META];
        bm.lookups += n;
        const bool selected = look.metaPred ? look.majority : look.bimPred;
        bm.conflicts += n * (selected != taken);
        bm.agree += n * (selected == taken);
        unanimous += n
            * (look.bimPred == look.g0Pred && look.g0Pred == look.g1Pred);
        metaSelectsGskew += n * look.metaPred;
        mispredicts += n * (look.overall != taken);
    }
};

/**
 * Publishes @p stats as counters named
 * "<prefix>.bank<k>.{lookups,conflicts,agree}" (k in table order:
 * 0=BIM, 1=G0, 2=G1, 3=Meta) plus "<prefix>.{updates,unanimous,
 * meta_selects_gskew,mispredicts}". Implemented in predictor.cc.
 */
void publishGskewVoteStats(MetricRegistry &registry,
                           const std::string &prefix,
                           const GskewVoteStats &stats);

namespace detail
{

/** Strengthens every majority-vote participant that voted @p taken. */
template <typename Banks>
constexpr void
strengthenCorrectVoters(Banks &banks, const GskewLookup &look, bool taken)
{
    if (look.bimPred == taken)
        banks.strengthen(BIM, look.idx[BIM]);
    if (look.g0Pred == taken)
        banks.strengthen(G0, look.idx[G0]);
    if (look.g1Pred == taken)
        banks.strengthen(G1, look.idx[G1]);
}

} // namespace detail

/**
 * The partial-update policy of Section 4.2, verbatim:
 *
 * on a correct prediction:
 *   - when all predictors were agreeing: do not update (Rationale 1);
 *   - otherwise strengthen Meta if the two predictions differed, and
 *     strengthen the correct prediction on the participating tables
 *     (BIM when the bimodal prediction was used; every correctly-voting
 *     bank when the majority vote was used).
 *
 * on a misprediction:
 *   - when the two predictions differed: first update the chooser
 *     (Rationale 2), then recompute the overall prediction under the
 *     new chooser value -- if now correct, strengthen the participating
 *     tables; if still wrong, update all banks;
 *   - when both predictions agreed (both wrong): update all banks.
 */
template <typename Banks>
constexpr void
gskewPartialUpdate(Banks &banks, const GskewLookup &look, bool taken)
{
    if (look.overall == taken) {
        if (look.bimPred == look.g0Pred && look.g0Pred == look.g1Pred) {
            // Rationale 1: all three agree; leave every counter soft so
            // a colliding (address, history) pair can steal one without
            // breaking the majority.
            return;
        }
        if (look.majority != look.bimPred)
            banks.strengthen(META, look.idx[META]);
        if (!look.metaPred)
            banks.strengthen(BIM, look.idx[BIM]);
        else
            detail::strengthenCorrectVoters(banks, look, taken);
        return;
    }

    if (look.majority != look.bimPred) {
        // Rationale 2: the other component was right; retrain only the
        // chooser, then check whether that alone fixes the prediction.
        banks.update(META, look.idx[META], look.majority == taken);
        const bool new_meta = banks.taken(META, look.idx[META]);
        const bool new_overall = new_meta ? look.majority : look.bimPred;
        if (new_overall == taken) {
            if (!new_meta)
                banks.strengthen(BIM, look.idx[BIM]);
            else
                detail::strengthenCorrectVoters(banks, look, taken);
            return;
        }
    }
    banks.update(BIM, look.idx[BIM], taken);
    banks.update(G0, look.idx[G0], taken);
    banks.update(G1, look.idx[G1], taken);
}

/** The reference total-update policy, for the update-policy ablation. */
template <typename Banks>
constexpr void
gskewTotalUpdate(Banks &banks, const GskewLookup &look, bool taken)
{
    banks.update(BIM, look.idx[BIM], taken);
    banks.update(G0, look.idx[G0], taken);
    banks.update(G1, look.idx[G1], taken);
    if (look.majority != look.bimPred)
        banks.update(META, look.idx[META], look.majority == taken);
}

/**
 * Per-table array accesses, one count per read or write of a
 * prediction or hysteresis bit, as SplitBitBanks makes them.
 */
struct GskewAccessStats
{
    uint64_t predReads = 0;
    uint64_t predWrites = 0;
    uint64_t hystReads = 0;
    uint64_t hystWrites = 0;
};

/**
 * The Banks interface over split prediction/hysteresis bit arrays with
 * readPred/readHyst/writePred/writeHyst accessors: one array access per
 * hardware read or write (Section 4.3). The EV8 physical arrays and the
 * policy table's one-entry bank both run the policy through it, so the
 * one-entry bank's access counts (gskewKeyAccess()) are the arrays' by
 * construction.
 */
template <class Arrays>
struct SplitBitBanks
{
    Arrays &arrays;

    constexpr bool
    taken(TableId t, size_t idx) const
    {
        return arrays.readPred(t, idx);
    }

    /** Partial-update strengthen: copy the prediction bit into the
     *  hysteresis bit -- a hysteresis-array-only write. */
    constexpr void
    strengthen(TableId t, size_t idx)
    {
        arrays.writeHyst(t, idx, arrays.readPred(t, idx));
    }

    /** Full 2-bit counter step: read both bits, write back the
     *  stepped state (a misprediction-path access). */
    constexpr void
    update(TableId t, size_t idx, bool v)
    {
        const bool p = arrays.readPred(t, idx);
        const bool h = arrays.readHyst(t, idx);
        if (p == v) {
            arrays.writeHyst(t, idx, p); // strengthen
        } else if (h == p) {
            arrays.writeHyst(t, idx, !p); // weaken
        } else {
            arrays.writePred(t, idx, v); // flip
            arrays.writeHyst(t, idx, !v);
        }
    }
};

/**
 * Keys of the tabulated policy: prediction bits of BIM, G0, G1, Meta
 * in bits 0-3, their hysteresis bits in bits 4-7, the outcome in bit 8
 * and the policy (1 = partial update) in bit 9.
 */
constexpr unsigned kGskewKeys = 1024;

/** The outcome and policy bits of a key. */
constexpr unsigned
gskewOutcomeKey(bool taken, bool partial_update)
{
    return (unsigned{taken} << 8) | (unsigned{partial_update} << 9);
}

/** One key's step: which bits flip and what the predictor voted. */
struct GskewTransition
{
    uint8_t flips = 0;     //!< bit j: bit j of the key flips
    uint8_t votes = 0;     //!< bit 0: overall, bit 1: majority
    uint8_t predReads = 0; //!< bits [2t, 2t+2): table t's pred reads

    constexpr bool overall() const { return (votes & 1) != 0; }

    /** Prediction-array reads of table @p t, votes included. */
    constexpr unsigned
    predReadsOf(unsigned t) const
    {
        return (predReads >> (2 * t)) & 3u;
    }
};

/** The tabulated policy: one step per key. */
struct GskewPolicyTable
{
    std::array<GskewTransition, kGskewKeys> step{};
};

namespace detail
{

/** One bit of prediction and one of hysteresis per table, every
 *  access counted: the bank the policy table is enumerated on. */
struct OneEntryArrays
{
    std::array<bool, kNumTables> pred{};
    std::array<bool, kNumTables> hyst{};
    std::array<GskewAccessStats, kNumTables> count{};

    constexpr bool
    readPred(TableId t, size_t)
    {
        ++count[t].predReads;
        return pred[t];
    }
    constexpr bool
    readHyst(TableId t, size_t)
    {
        ++count[t].hystReads;
        return hyst[t];
    }
    constexpr void
    writePred(TableId t, size_t, bool v)
    {
        ++count[t].predWrites;
        pred[t] = v;
    }
    constexpr void
    writeHyst(TableId t, size_t, bool v)
    {
        ++count[t].hystWrites;
        hyst[t] = v;
    }
};

/** Runs the templates once on a one-entry bank holding @p key's
 *  bits; returns the bank after the step, every access counted, and
 *  the votes in @p look. */
constexpr OneEntryArrays
stepOneEntry(unsigned key, GskewLookup &look)
{
    OneEntryArrays arrays;
    for (unsigned t = 0; t < kNumTables; ++t) {
        arrays.pred[t] = ((key >> t) & 1) != 0;
        arrays.hyst[t] = ((key >> (4 + t)) & 1) != 0;
    }
    const bool taken = ((key >> 8) & 1) != 0;
    SplitBitBanks<OneEntryArrays> banks{arrays};
    computeGskewVotes(banks, look);
    if ((key >> 9) & 1)
        gskewPartialUpdate(banks, look, taken);
    else
        gskewTotalUpdate(banks, look, taken);
    return arrays;
}

constexpr GskewPolicyTable
buildGskewPolicyTable()
{
    GskewPolicyTable table;
    for (unsigned key = 0; key < kGskewKeys; ++key) {
        GskewLookup look;
        const OneEntryArrays arrays = stepOneEntry(key, look);
        GskewTransition &e = table.step[key];
        unsigned state = 0;
        for (unsigned t = 0; t < kNumTables; ++t) {
            state |= (unsigned{arrays.pred[t]} << t)
                | (unsigned{arrays.hyst[t]} << (4 + t));
            // At most 3 (Meta: vote, update, re-read), so 2 bits.
            e.predReads |= static_cast<uint8_t>(
                arrays.count[t].predReads << (2 * t));
        }
        e.flips = static_cast<uint8_t>((state ^ key) & 0xff);
        e.votes = static_cast<uint8_t>(unsigned{look.overall}
                                       | (unsigned{look.majority} << 1));
    }
    return table;
}

} // namespace detail

/** The 2Bc-gskew policy, tabulated from the templates above. */
inline constexpr GskewPolicyTable kGskewPolicy =
    detail::buildGskewPolicyTable();

/**
 * The per-table array accesses @p key's step makes, counted by running
 * the templates on a one-entry bank. Only the histogram fold asks for
 * them, at publish time, so they are not tabulated.
 */
constexpr std::array<GskewAccessStats, kNumTables>
gskewKeyAccess(unsigned key)
{
    GskewLookup look;
    return detail::stepOneEntry(key, look).count;
}

/**
 * The eight bits one step reads and may flip, in key order: the
 * prediction bits of BIM, G0, G1 and Meta, then their hysteresis bits
 * (at the possibly shared entry, Section 4.4). Each is a word and a
 * bit position in it, so packed bitplanes (Word = uint64_t) and
 * byte-per-bit arrays (Word = uint8_t, shift 0) step alike.
 */
template <class Word>
struct GskewStepBits
{
    std::array<Word *, 8> word;
    std::array<uint8_t, 8> shift;

    /** The key of the eight bits, with @p outcome_key. */
    unsigned
    key(unsigned outcome_key) const
    {
        unsigned k = outcome_key;
        for (unsigned j = 0; j < 8; ++j)
            k |= static_cast<unsigned>((*word[j] >> shift[j]) & 1u) << j;
        return k;
    }

    /** XORs a transition's flips back into the bits. */
    void
    flip(unsigned flips)
    {
        for (unsigned j = 0; j < 8; ++j)
            *word[j] ^= static_cast<Word>(Word((flips >> j) & 1u)
                                          << shift[j]);
    }
};

/** One tabulated step: the key it read, and its transition. */
struct GskewStep
{
    unsigned key;
    GskewTransition t;
};

/**
 * Steps one 2Bc-gskew through kGskewPolicy: read the eight bits, look
 * the key up and XOR its flips back. @p outcome_key is
 * gskewOutcomeKey(taken, partial_update). Nothing is counted per
 * access; callers tally per key (foldGskewVotes()).
 */
template <class Word>
inline GskewStep
gskewStep(GskewStepBits<Word> &bits, unsigned outcome_key)
{
    const unsigned key = bits.key(outcome_key);
    const GskewTransition e = kGskewPolicy.step[key];
    if (e.flips != 0)
        bits.flip(e.flips);
    return {key, e};
}

/** The vote fields of a GskewLookup as the step of @p key computed
 *  them (the indices are left 0). */
constexpr GskewLookup
gskewKeyLookup(unsigned key)
{
    GskewLookup look;
    look.bimPred = (key & 1) != 0;
    look.g0Pred = ((key >> 1) & 1) != 0;
    look.g1Pred = ((key >> 2) & 1) != 0;
    look.metaPred = ((key >> 3) & 1) != 0;
    look.majority = ((kGskewPolicy.step[key].votes >> 1) & 1) != 0;
    look.overall = kGskewPolicy.step[key].overall();
    return look;
}

/** The votes a key's step computed. */
inline VoteSnapshot
gskewKeyVotes(unsigned key)
{
    const GskewLookup look = gskewKeyLookup(key);
    VoteSnapshot v;
    v.valid = true;
    v.bim = look.bimPred;
    v.g0 = look.g0Pred;
    v.g1 = look.g1Pred;
    v.meta = look.metaPred;
    v.majority = look.majority;
    return v;
}

/** The prediction-bit key of a vote pass, for gskewKeyVotes(). */
constexpr unsigned
gskewVoteKey(const GskewLookup &look)
{
    return unsigned{look.bimPred} | (unsigned{look.g0Pred} << 1)
        | (unsigned{look.g1Pred} << 2) | (unsigned{look.metaPred} << 3);
}

/** A histogram of step keys, one bin per key. */
using GskewKeyHistogram = std::array<uint64_t, kGskewKeys>;

/** Adds the steps counted in @p hist into @p votes: the totals
 *  per-step note() would have reached over those steps. */
void foldGskewVotes(const GskewKeyHistogram &hist, GskewVoteStats &votes);

/** Adds the array accesses of the steps counted in @p hist into
 *  @p access, as per-access tracking would have counted them. */
void foldGskewAccess(const GskewKeyHistogram &hist,
                     std::array<GskewAccessStats, kNumTables> &access);

} // namespace ev8

#endif // EV8_PREDICTORS_GSKEW_POLICY_HH
