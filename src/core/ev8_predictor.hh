/**
 * @file
 * The Alpha EV8 conditional branch predictor -- the paper's artifact.
 *
 * A 352 Kbit 2Bc-gskew (Table 1 geometry) implemented over the physical
 * banked storage of Section 7.1, indexed with the hardware-constrained
 * functions of Sections 7.3-7.5, driven by the EV8 information vector
 * (three-fetch-blocks-old lghist + path, Section 5), and trained with
 * the partial-update policy of Section 4.2.
 *
 * The class exposes three equivalent access paths:
 *  - predictAndUpdate(), the production walk's stepper: all four flat
 *    indices from one lookup-table pass (ev8EntryIndices), then one
 *    tabulated policy step (gskewStep()) on the arrays' bits, its
 *    statistics kept as a histogram of step keys;
 *  - predict()/update(), the ConditionalBranchPredictor oracle the
 *    reference walk (EV8_GENERIC_KERNEL=1) runs: each table's index
 *    from its own ev8EntryIndex() evaluation of the Section 7
 *    equations, then the same flat-index accessors;
 *  - predictBlock(), the hardware-faithful path that reads one 8-bit
 *    word per logical table and produces all up-to-8 predictions of a
 *    fetch block from a single access, exactly as the arrays do.
 */

#ifndef EV8_CORE_EV8_PREDICTOR_HH
#define EV8_CORE_EV8_PREDICTOR_HH

#include <array>
#include <string>

#include "core/index_functions.hh"
#include "core/physical_storage.hh"
#include "predictors/gskew_policy.hh"
#include "predictors/predictor.hh"

namespace ev8
{

/** Configuration switches of the constrained EV8 model. */
struct Ev8Config
{
    /** Shared wordline selection (the Fig. 9 ablation axis). */
    WordlineMode wordline = WordlineMode::Ev8;

    /** Section 4.2 partial update (false = total update ablation). */
    bool partialUpdate = true;

    std::string label = "EV8";
};

/** All eight predictions of one fetch block, plus the word coordinates
 *  of the access that produced them. */
struct Ev8BlockPrediction
{
    /** Instruction slots per fetch block. */
    static constexpr unsigned kSlots = 8;

    std::array<bool, kSlots> takenAtOffset{};
    std::array<Ev8WordCoords, kNumTables> coords{};
};

class Ev8Predictor final : public ConditionalBranchPredictor
{
  public:
    explicit Ev8Predictor(const Ev8Config &config = Ev8Config{});

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;

    /**
     * Fused predict-and-train step for the production walk: the same
     * transitions, votes and storage tallies as predict(); update(),
     * with the four indices from one ev8EntryIndices() pass and the
     * policy from one kGskewPolicy lookup.
     */
    bool predictAndUpdate(const BranchSnapshot &snap, bool taken) override;

    uint64_t storageBits() const override;
    std::string name() const override;
    VoteSnapshot lastVotes() const override;

    /** Publishes vote/conflict tallies plus the physical arrays'
     *  access and wordline counts ("<prefix>.storage.*"). */
    void publishMetrics(MetricRegistry &registry,
                        const std::string &prefix) const override;

    /** Also switches the physical arrays' access tracking. */
    void
    enableStats(bool on) override
    {
        ConditionalBranchPredictor::enableStats(on);
        arrays.setTracking(on);
    }

    /**
     * Hardware-faithful block-wide prediction: one 8-bit word read per
     * logical table; the prediction for the instruction at in-block
     * offset o combines bit (o XOR u_table) of each table's word.
     */
    Ev8BlockPrediction predictBlock(const Ev8IndexInput &in) const;

    /** Flat entry index for one branch (exposed for tests). */
    size_t tableIndex(TableId table, const BranchSnapshot &snap) const;

    const Ev8Config &config() const { return cfg; }
    const Ev8PhysicalStorage &storage() const { return arrays; }

    /** Vote tallies of both paths: the oracle's per-update notes plus
     *  the stepper's key histogram, folded. */
    GskewVoteStats voteStats() const;

    /** Array accesses of both paths, likewise (the storage's tracked
     *  tallies plus the folded key histogram). */
    std::array<GskewAccessStats, kNumTables> accessStats() const;

  private:
    /** The shared policy's Banks interface over the tracked flat
     *  accessors, one array access per hardware read or write. */
    using FlatBanks = SplitBitBanks<Ev8PhysicalStorage>;

    static Ev8IndexInput indexInput(const BranchSnapshot &snap);

    Ev8Config cfg;
    Ev8PhysicalStorage arrays;
    GskewLookup last;   //!< cached between predict() and update()
    unsigned lastKey_ = 0; //!< the last vote pass's key, for lastVotes()
    GskewVoteStats stats; //!< the oracle's per-update notes
    GskewKeyHistogram keyHist_{}; //!< the stepper's step keys
};

} // namespace ev8

#endif // EV8_CORE_EV8_PREDICTOR_HH
