#include "sim/smt.hh"

#include "frontend/bank_scheduler.hh"
#include "sim/kernel.hh"

namespace ev8
{

std::vector<SmtThreadResult>
simulateSmt(const std::vector<const BlockStream *> &threads,
            ConditionalBranchPredictor &predictor, const SmtConfig &config)
{
    const SimConfig &sim = config.sim;
    const bool lghist_mode = sim.history != HistoryMode::Ghist;
    const bool lghist_path = sim.history == HistoryMode::LghistPath;

    /** A thread's next block and the flat index of its first branch. */
    struct Cursor
    {
        size_t block = 0;
        uint32_t branch = 0;
    };

    std::vector<SmtThreadResult> results(threads.size());
    std::vector<Cursor> cursors(threads.size());
    std::vector<detail::KernelWalkState> walks(
        threads.size(), detail::KernelWalkState(lghist_path, sim.historyAge));
    for (size_t t = 0; t < threads.size(); ++t) {
        results[t].name = threads[t]->name();
        results[t].sim.stats.setInstructions(threads[t]->instructions());
    }

    // The bank-number recurrence lives in the fetch hardware and spans
    // threads (fetch slots interleave on the real machine).
    BankScheduler bank_sched;

    // One round gives every thread with blocks left one fetch block.
    for (bool fetched = true; fetched;) {
        fetched = false;
        for (size_t t = 0; t < threads.size(); ++t) {
            const BlockStream &stream = *threads[t];
            Cursor &at = cursors[t];
            if (at.block == stream.blocks())
                continue;
            fetched = true;

            // Shared-history straw man: every thread reads and writes
            // walk 0.
            detail::KernelWalkState &walk =
                walks[config.perThreadHistory ? t : 0];
            SimResult &out = results[t].sim;
            ++out.fetchBlocks;

            const BlockShape &shape = stream.blockShape(at.block++);
            BranchSnapshot snap;
            snap.blockAddr = shape.address;
            snap.hist.pathZ = walk.pathZ;
            snap.hist.pathY = walk.pathY;
            snap.hist.pathX = walk.pathX;
            if (sim.assignBanks)
                snap.bank = static_cast<uint8_t>(
                    bank_sched.assign(shape.address));

            const uint64_t block_hist = walk.delayed.view();
            for (unsigned i = 0; i < shape.numBranches; ++i, ++at.branch) {
                const bool taken = stream.branchTaken(at.branch);
                snap.pc = shape.address
                    + uint64_t{stream.branchSlot(at.branch)} * kInstrBytes;
                snap.hist.ghist = walk.ghist.raw();
                snap.hist.indexHist =
                    lghist_mode ? block_hist : walk.ghist.raw();

                const bool predicted = predictor.predict(snap);
                out.stats.record(predicted, taken);
                predictor.update(snap, taken, predicted);

                walk.ghist.push(taken);
                ++out.condBranches;
            }

            if (shape.numBranches > 0) {
                walk.lghist.onBranchBlock(snap.pc,
                                          stream.branchTaken(at.branch - 1));
                ++out.lghistBits;
            }
            walk.delayed.advance(walk.lghist.value());

            walk.pathX = walk.pathY;
            walk.pathY = walk.pathZ;
            walk.pathZ = shape.address;
        }
    }
    return results;
}

} // namespace ev8
