/**
 * @file
 * The simulation kernel: one walk of a pre-decoded BlockStream drives
 * N predictor lanes under the paper's method (Section 8.1.1: immediate
 * update, one information vector per fetch block).
 *
 *  - runFusedStreamKernelRange is the production walk over one block
 *    range, one instantiation per (concrete predictor type, history
 *    mode), so the lane steppers are direct calls. Mispredict events
 *    come from whichever stepper runs: requesting them changes no
 *    stepper, only adds emission after each step;
 *  - runWindows is the windowed driver: an exact run is one window
 *    [0, blocks()) with no warmup, a sampled run is a plan's windows,
 *    each primed by its warmup range;
 *  - dispatchFusedKernel resolves the history mode to the matching
 *    production instantiation;
 *  - runOracleRange is the reference: one predictor behind the virtual
 *    base class, split predict()/update() calls. It runs
 *    only when SimConfig::forceGenericKernel / EV8_GENERIC_KERNEL=1 is
 *    set, so the byte-identity gates compare it with production.
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
 * branch instead of once per lane. simulator.cc owns the dispatch;
 * nothing else should include this header.
 */

#ifndef EV8_SIM_KERNEL_HH
#define EV8_SIM_KERNEL_HH

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <type_traits>
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
 * Single-call lane entry point: predict and train in one step, letting
 * the predictor reuse lookup state (indices, votes) it would otherwise
 * recompute or re-cache between the two virtual calls.
 */
template <class P>
concept FusedSteppable = requires(P p, const BranchSnapshot &snap) {
    { p.predictAndUpdate(snap, true) } -> std::same_as<bool>;
};

/**
 * Group-stepped lane entry point, the strongest fusion contract: the
 * predictor class exposes a FusedGroup stepper that advances every lane
 * of a fused job in one call, sharing cross-lane index arithmetic that
 * the per-lane entry points cannot see (all lanes of a group observe
 * the same BranchSnapshot). Constructed once per range walk, checked
 * before the per-lane entry points.
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
 * The production walk: one pass over blocks [begin_block, end_block)
 * drives @p nlanes predictor lanes under one shared history
 * configuration, continuing from (and updating) @p walk.
 *
 * @tparam Predictor   concrete (final) predictor class, or
 *                     ConditionalBranchPredictor for types without one
 * @tparam LghistMode  config.history != HistoryMode::Ghist
 *
 * The walk tallies (fetchBlocks, condBranches, lghistBits,
 * branchesPerBlock) are computed once and added into every lane;
 * per-lane mispredictions are tallied SoA. A lane with an event sink
 * gets one record per step that raised its tally, carrying the votes
 * the stepper left in lastVotes().
 */
template <class Predictor, bool LghistMode>
void
runFusedStreamKernelRange(const BlockStream &stream,
                          FusedLaneState<Predictor> *lanes,
                          size_t nlanes, const SimConfig &config,
                          BankScheduler &bank_sched, size_t begin_block,
                          size_t end_block, KernelWalkState &walk,
                          uint64_t branch_seq_base)
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
    // Running flat branch index: one checkpoint lookup per range.
    uint32_t j = stream.branchBegin(begin_block);
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
            snap.hist.indexHist = LghistMode ? block_hist : ghist.raw();

            if constexpr (FusedGroupStepped<Predictor>) {
                group.step(snap, br_taken, misp);
            } else if constexpr (FusedSteppable<Predictor>) {
                for (size_t l = 0; l < nlanes; ++l)
                    misp[l] += preds[l]->predictAndUpdate(snap, br_taken)
                        != br_taken;
            } else {
                for (size_t l = 0; l < nlanes; ++l) {
                    const bool predicted = preds[l]->predict(snap);
                    preds[l]->update(snap, br_taken, predicted);
                    misp[l] += predicted != br_taken;
                }
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
 * The oracle: the readable reference walk of one predictor over blocks
 * [begin_block, end_block), through the virtual interface, with
 * split predict()/update() calls and a plain runtime check for events.
 * Same contract as runFusedStreamKernelRange with one lane, and slower
 * by design.
 */
inline void
runOracleRange(const BlockStream &stream,
               const FusedLaneState<ConditionalBranchPredictor> &lane,
               const SimConfig &config, BankScheduler &bank_sched,
               size_t begin_block, size_t end_block,
               KernelWalkState &walk, uint64_t branch_seq)
{
    ConditionalBranchPredictor &predictor = *lane.predictor;
    SimResult &r = *lane.result;
    const bool lghist_mode = config.history != HistoryMode::Ghist;

    BranchSnapshot snap;
    uint32_t j = stream.branchBegin(begin_block);
    for (size_t b = begin_block; b < end_block; ++b) {
        const BlockShape &shape = stream.blockShape(b);
        const uint64_t block_addr = shape.address;
        const uint32_t last = j + shape.numBranches;
        ++r.fetchBlocks;
        ++r.branchesPerBlock[std::min<size_t>(
            shape.numBranches, r.branchesPerBlock.size() - 1)];

        snap.blockAddr = block_addr;
        snap.hist.pathZ = walk.pathZ;
        snap.hist.pathY = walk.pathY;
        snap.hist.pathX = walk.pathX;
        if (config.assignBanks)
            snap.bank =
                static_cast<uint8_t>(bank_sched.assign(block_addr));
        const uint64_t block_hist = walk.delayed.view();

        for (; j < last; ++j, ++branch_seq) {
            const uint8_t raw = stream.branchRaw(j);
            const bool taken = (raw & 1) != 0;
            snap.pc = block_addr + uint64_t(raw >> 1) * kInstrBytes;
            snap.hist.ghist = walk.ghist.raw();
            snap.hist.indexHist =
                lghist_mode ? block_hist : walk.ghist.raw();

            const bool predicted = predictor.predict(snap);
            r.stats.record(predicted, taken);
            if (lane.events && predicted != taken) {
                lane.events->onMispredict(makeMispredictEvent(
                    branch_seq, snap, taken, predicted,
                    predictor.lastVotes()));
            }
            predictor.update(snap, taken, predicted);
            walk.ghist.push(taken);
            ++r.condBranches;
        }

        if (shape.numBranches > 0) {
            const uint8_t raw = stream.branchRaw(last - 1);
            walk.lghist.onBranchBlock(
                block_addr + uint64_t(raw >> 1) * kInstrBytes,
                (raw & 1) != 0);
            ++r.lghistBits;
        }
        walk.delayed.advance(walk.lghist.value());
        walk.pathX = walk.pathY;
        walk.pathY = walk.pathZ;
        walk.pathZ = block_addr;
    }
}

/**
 * The windowed driver, shared by the production walk and the oracle:
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

/**
 * Resolves the history mode to the matching production instantiation
 * and walks @p windows with it, warmup and measured ranges alike.
 */
template <class Predictor>
void
dispatchFusedKernel(const BlockStream &stream,
                    FusedLaneState<Predictor> *lanes, size_t nlanes,
                    const SimConfig &config, BankScheduler &bank_sched,
                    const std::vector<SampledWindow> &windows)
{
    auto run = [&](auto lg_c) {
        runWindows(
            lanes, nlanes, config, bank_sched, windows,
            [&](FusedLaneState<Predictor> *ls, KernelWalkState &walk,
                size_t begin, size_t end, uint64_t seq) {
                runFusedStreamKernelRange<Predictor,
                                          decltype(lg_c)::value>(
                    stream, ls, nlanes, config, bank_sched, begin, end,
                    walk, seq);
            });
    };
    if (config.history != HistoryMode::Ghist)
        return run(std::true_type{});
    return run(std::false_type{});
}

} // namespace detail
} // namespace ev8

#endif // EV8_SIM_KERNEL_HH
