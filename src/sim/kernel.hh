/**
 * @file
 * The simulation kernel: one walk of a pre-decoded BlockStream drives
 * N predictor lanes under the paper's method (Section 8.1.1: immediate
 * update, one information vector per fetch block).
 *
 *  - runFusedStreamKernelRange is the one walk that advances the
 *    information vector, over one block range, one instantiation per
 *    walk bucket (the two group-stepped types, Ev8Predictor, and the
 *    generic ConditionalBranchPredictor walk), so the bucketed lane
 *    steppers are direct calls. The history mode is a runtime value of
 *    the walk. Mispredict events come from whichever stepper runs:
 *    requesting them changes no stepper, only adds emission after each
 *    step;
 *  - runWindows is the windowed driver: an exact run is one window
 *    [0, blocks()) with no warmup, a sampled run is a plan's windows,
 *    each primed by its warmup range;
 *  - SplitCallPredictor is the oracle's lane: under oracleForced() each
 *    lane walks alone through the generic walk behind it, so every
 *    scheme is reached only through its virtual predict()/update()
 *    calls, which the byte-identity gates compare with the steppers.
 *    The SMT interleaver (smt.cc) steps the same walk one fetch block
 *    at a time, one KernelWalkState per thread.
 *
 * A single cell is a one-lane walk. Lanes may share the walk because
 * every register the simulator maintains -- ghist, lghist, the delayed
 * view, the path registers and the bank recurrence -- evolves from
 * trace outcomes only, never from predictor output: lanes with the
 * same (history mode, history age, assignBanks) triple observe
 * bit-identical BranchSnapshots, and a lane consuming fewer history
 * bits simply masks the shared register down. Per-lane work is laid
 * out struct-of-arrays: a dense predictor-pointer array and a dense
 * mispredict-tally array, with the per-branch snapshot built once per
 * branch instead of once per lane. simulator.cc and smt.cc are its only
 * includers.
 */

#ifndef EV8_SIM_KERNEL_HH
#define EV8_SIM_KERNEL_HH

#include <array>
#include <concepts>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "frontend/bank_scheduler.hh"
#include "frontend/lghist.hh"
#include "obs/event_trace.hh"
#include "sim/block_stream.hh"
#include "sim/phase/sample_plan.hh"
#include "sim/simulator.hh"

namespace ev8
{
namespace detail
{

/**
 * The shared history machinery of one stream walk, lifted out of the
 * range walks so a walk can span multiple [begin, end) block ranges: a
 * sampled run walks a warmup range and a measured range (or several
 * contiguous windows) over one evolving state. The production walk
 * copies the members into locals at entry and writes them back at
 * exit, so the hot-loop codegen keeps them in registers.
 */
struct KernelWalkState
{
    KernelWalkState(bool lghist_path, unsigned history_age)
        : lghist(lghist_path), delayed(history_age)
    {
    }

    HistoryRegister ghist;
    LghistTracker lghist;
    DelayedHistory delayed;
    /** Path registers: addresses of the last three fetch blocks. */
    uint64_t pathZ = 0, pathY = 0, pathX = 0;
};

/** Measured tallies of one sampled window (one lane's view). */
struct SampledWindowTally
{
    uint32_t phaseId = 0;
    uint64_t branches = 0;
    uint64_t instrs = 0;
    uint64_t mispredictions = 0;
};

/** Builds the sampled-trace record for one misprediction. */
inline MispredictEvent
makeMispredictEvent(uint64_t branch_seq, const BranchSnapshot &snap,
                    bool taken, bool predicted, const VoteSnapshot &votes)
{
    MispredictEvent ev;
    ev.branchSeq = branch_seq;
    ev.pc = snap.pc;
    ev.blockAddr = snap.blockAddr;
    ev.ghist = snap.hist.ghist;
    ev.indexHist = snap.hist.indexHist;
    ev.bank = snap.bank;
    ev.taken = taken;
    ev.predicted = predicted;
    ev.votesValid = votes.valid;
    ev.voteBim = votes.bim;
    ev.voteG0 = votes.g0;
    ev.voteG1 = votes.g1;
    ev.voteMeta = votes.meta;
    ev.voteMajority = votes.majority;
    return ev;
}

/**
 * Group-stepped lane entry point: the predictor class exposes a
 * FusedGroup stepper that advances every lane of a fused job in one
 * call, sharing cross-lane index arithmetic that the per-lane
 * predictAndUpdate() cannot see (all lanes of a group observe the same
 * BranchSnapshot). Constructed once per range walk.
 */
template <class P>
concept FusedGroupStepped = requires(typename P::FusedGroup &group,
                                     const BranchSnapshot &snap,
                                     uint64_t *misp) {
    requires std::constructible_from<typename P::FusedGroup, P *const *,
                                     size_t>;
    { group.step(snap, true, misp) } -> std::same_as<void>;
};

/** One lane of a walk: its predictor and where its outputs go. */
template <class Predictor>
struct FusedLaneState
{
    Predictor *predictor = nullptr;
    SimResult *result = nullptr;
    MispredictSink *events = nullptr; //!< may be null per lane

    /** Whether the predictor's internal stats are on (metrics attached);
     *  runWindows gates them off during warmup and restores this. */
    bool statsWanted = false;

    /** Measured tallies, one per window, for the sampled estimate;
     *  null for an exact run, which has nothing to extrapolate. */
    std::vector<SampledWindowTally> *tallies = nullptr;
};

/**
 * Throwing lane-set validation: a malformed lane set must be a
 * recoverable cell failure (caught, retried, reported) in release
 * builds too, not silent UB.
 */
template <class Predictor>
void
checkFusedLanes(const FusedLaneState<Predictor> *lanes, size_t nlanes)
{
    if (nlanes < 1 || nlanes > kMaxFusedLanes) {
        throw std::invalid_argument(
            "fused kernel lane count " + std::to_string(nlanes)
            + " outside [1, " + std::to_string(kMaxFusedLanes) + "]");
    }
    for (size_t l = 0; l < nlanes; ++l) {
        if (lanes[l].predictor == nullptr
            || lanes[l].result == nullptr) {
            throw std::invalid_argument(
                "fused kernel lane " + std::to_string(l)
                + " has a null predictor or result slot");
        }
    }
}

/**
 * The walk: one pass over blocks [begin_block, end_block)
 * drives @p nlanes predictor lanes under one shared history
 * configuration, continuing from (and updating) @p walk. The caller
 * passes @p first_branch, stream.branchBegin(begin_block): a windowed
 * run looks it up once per range, and the SMT interleaver, whose
 * ranges are single blocks, keeps a running index per thread instead.
 *
 * @tparam Predictor  a bucketed predictor class, or
 *                    ConditionalBranchPredictor for the generic walk
 *
 * The walk tallies (fetchBlocks, condBranches, lghistBits,
 * branchesPerBlock) are computed once and added into every lane;
 * per-lane mispredictions are tallied SoA. A lane with an event sink
 * gets one record per step that raised its tally, carrying the votes
 * the stepper left in lastVotes().
 */
template <class Predictor>
void
runFusedStreamKernelRange(const BlockStream &stream,
                          FusedLaneState<Predictor> *lanes,
                          size_t nlanes, const SimConfig &config,
                          BankScheduler &bank_sched, size_t begin_block,
                          size_t end_block, uint32_t first_branch,
                          KernelWalkState &walk, uint64_t branch_seq_base)
{
    // SoA hot state: dense predictor pointers and mispredict tallies,
    // plus each observed lane's tally as of its last emitted event.
    Predictor *preds[kMaxFusedLanes];
    uint64_t misp[kMaxFusedLanes] = {};
    uint64_t emitted[kMaxFusedLanes] = {};
    bool observed = false; // some lane has an event sink
    for (size_t l = 0; l < nlanes; ++l) {
        preds[l] = lanes[l].predictor;
        observed |= lanes[l].events != nullptr;
    }

    // Group stepper, built once per range walk.
    auto group = [&] {
        if constexpr (FusedGroupStepped<Predictor>)
            return typename Predictor::FusedGroup(preds, nlanes);
        else
            return 0;
    }();
    (void)group;

    const bool assign_banks = config.assignBanks;
    const bool lghist_mode = config.history != HistoryMode::Ghist;

    HistoryRegister ghist = walk.ghist;
    LghistTracker lghist = walk.lghist;
    DelayedHistory delayed = walk.delayed;
    uint64_t path_z = walk.pathZ, path_y = walk.pathY,
             path_x = walk.pathX;

    // Walk tallies, computed once and fanned out to every lane. Event
    // records carry the branch's absolute sequence number in the whole
    // stream.
    uint64_t fetch_blocks = 0, cond_branches = 0, lghist_bits = 0;
    uint64_t branch_seq = branch_seq_base;
    std::array<uint64_t, 9> per_block{};

    BranchSnapshot snap;
    // Running flat branch index.
    uint32_t j = first_branch;
    const size_t nblocks = end_block;
    for (size_t b = begin_block; b < nblocks; ++b) {
        ++fetch_blocks;
        const BlockShape &shape = stream.blockShape(b);
        const unsigned nbr = shape.numBranches;
        const uint32_t last = j + nbr;
        ++per_block[nbr < per_block.size() ? nbr : per_block.size() - 1];

        const uint64_t block_addr = shape.address;
        snap.blockAddr = block_addr;
        snap.hist.pathZ = path_z;
        snap.hist.pathY = path_y;
        snap.hist.pathX = path_x;
        if (assign_banks)
            snap.bank =
                static_cast<uint8_t>(bank_sched.assign(block_addr));

        // The index history for every branch of this block: the aged
        // lghist view, or per-branch ghist filled in below.
        const uint64_t block_hist = delayed.view();

        for (; j < last; ++j) {
            const uint8_t raw = stream.branchRaw(j);
            const bool br_taken = (raw & 1) != 0;
            snap.pc = block_addr + uint64_t(raw >> 1) * kInstrBytes;
            snap.hist.ghist = ghist.raw();
            snap.hist.indexHist = lghist_mode ? block_hist : ghist.raw();

            if constexpr (FusedGroupStepped<Predictor>) {
                group.step(snap, br_taken, misp);
            } else {
                for (size_t l = 0; l < nlanes; ++l)
                    misp[l] += preds[l]->predictAndUpdate(snap, br_taken)
                        != br_taken;
            }
            if (observed) {
                for (size_t l = 0; l < nlanes; ++l) {
                    if (!lanes[l].events || misp[l] == emitted[l])
                        continue;
                    emitted[l] = misp[l];
                    lanes[l].events->onMispredict(makeMispredictEvent(
                        branch_seq, snap, br_taken, !br_taken,
                        preds[l]->lastVotes()));
                }
            }

            ghist.push(br_taken);
            ++branch_seq;
            ++cond_branches;
        }

        if (nbr > 0) {
            const uint8_t raw = stream.branchRaw(last - 1);
            lghist.onBranchBlock(
                block_addr + uint64_t(raw >> 1) * kInstrBytes,
                (raw & 1) != 0);
            ++lghist_bits;
        }
        delayed.advance(lghist.value());

        path_x = path_y;
        path_y = path_z;
        path_z = block_addr;
    }

    walk.ghist = ghist;
    walk.lghist = lghist;
    walk.delayed = delayed;
    walk.pathZ = path_z;
    walk.pathY = path_y;
    walk.pathX = path_x;

    // Accumulating fan-out: each range adds into the lane results.
    for (size_t l = 0; l < nlanes; ++l) {
        SimResult &r = *lanes[l].result;
        r.stats.tally(cond_branches, misp[l]);
        r.fetchBlocks += fetch_blocks;
        r.condBranches += cond_branches;
        r.lghistBits += lghist_bits;
        for (size_t k = 0; k < per_block.size(); ++k)
            r.branchesPerBlock[k] += per_block[k];
    }
}

/**
 * Whether the oracle replaces the production buckets:
 * SimConfig::forceGenericKernel, or EV8_GENERIC_KERNEL=1 (strictly
 * parsed: only "0"/"1", exit 2 otherwise), which the determinism gate
 * in CI sets.
 */
bool oracleForced(const SimConfig &config);

/**
 * The oracle's lane: forwards the split calls (and the votes, the
 * stats switch, the name and the storage) to @p inner, and keeps the
 * base class's predictAndUpdate(), so a walk over it reaches the scheme
 * only through predict() then update(), never its fused stepper.
 */
class SplitCallPredictor final : public ConditionalBranchPredictor
{
  public:
    explicit SplitCallPredictor(ConditionalBranchPredictor &inner)
        : inner_(inner)
    {
    }

    bool
    predict(const BranchSnapshot &snap) override
    {
        return inner_.predict(snap);
    }

    void
    update(const BranchSnapshot &snap, bool taken,
           bool predicted_taken) override
    {
        inner_.update(snap, taken, predicted_taken);
    }

    VoteSnapshot lastVotes() const override { return inner_.lastVotes(); }
    void enableStats(bool on) override { inner_.enableStats(on); }
    std::string name() const override { return inner_.name(); }
    uint64_t storageBits() const override { return inner_.storageBits(); }

  private:
    ConditionalBranchPredictor &inner_;
};

/**
 * The windowed driver, shared by every bucket and the oracle:
 * @p windows in stream order over one evolving walk state. Each window
 * not contiguous with the previous one resets the history state and
 * the bank recurrence and is primed by its warmup range, which runs
 * into throwaway results with every lane's stats gated off and no
 * events. Predictor tables are never reset between windows.
 * Each lane with tallies gets its measured mispredictions per window.
 *
 * @p range(lanes, walk, begin, end, branch_seq_base) walks one block
 * range for every lane.
 */
template <class Predictor, class Range>
void
runWindows(FusedLaneState<Predictor> *lanes, size_t nlanes,
           const SimConfig &config, BankScheduler &bank_sched,
           const std::vector<SampledWindow> &windows, Range &&range)
{
    checkFusedLanes(lanes, nlanes);
    const bool lghist_path = config.history == HistoryMode::LghistPath;

    std::vector<SimResult> warm_sinks(nlanes);
    std::vector<FusedLaneState<Predictor>> warm_lanes(nlanes);
    for (size_t l = 0; l < nlanes; ++l) {
        warm_lanes[l].predictor = lanes[l].predictor;
        warm_lanes[l].result = &warm_sinks[l];
    }

    KernelWalkState walk(lghist_path, config.historyAge);
    uint64_t next_block = ~uint64_t{0};
    for (const SampledWindow &w : windows) {
        if (w.blockBegin != next_block) {
            walk = KernelWalkState(lghist_path, config.historyAge);
            bank_sched = BankScheduler();
            if (w.warmupBlockBegin < w.blockBegin) {
                for (size_t l = 0; l < nlanes; ++l)
                    lanes[l].predictor->enableStats(false);
                range(warm_lanes.data(), walk,
                      static_cast<size_t>(w.warmupBlockBegin),
                      static_cast<size_t>(w.blockBegin), uint64_t{0});
                for (size_t l = 0; l < nlanes; ++l)
                    lanes[l].predictor->enableStats(
                        lanes[l].statsWanted);
            }
        }
        uint64_t misp0[kMaxFusedLanes];
        for (size_t l = 0; l < nlanes; ++l)
            misp0[l] = lanes[l].result->stats.mispredictions();
        range(lanes, walk, static_cast<size_t>(w.blockBegin),
              static_cast<size_t>(w.blockEnd), w.branchSeqBase);
        for (size_t l = 0; l < nlanes; ++l) {
            if (lanes[l].tallies) {
                lanes[l].tallies->push_back(
                    {w.phaseId, w.branches, w.instrs,
                     lanes[l].result->stats.mispredictions() - misp0[l]});
            }
        }
        next_block = w.blockEnd;
    }
}

} // namespace detail
} // namespace ev8

#endif // EV8_SIM_KERNEL_HH
