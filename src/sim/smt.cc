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
    const bool lghist_path = sim.history == HistoryMode::LghistPath;

    // Under the oracle switch the shared tables are reached only
    // through their split predict()/update() calls, as in every cell.
    detail::SplitCallPredictor split(predictor);
    ConditionalBranchPredictor &shared =
        detail::oracleForced(sim) ? split : predictor;

    // Every thread is one lane of the shared predictor with its own
    // result, its next fetch block and that block's first branch.
    std::vector<SmtThreadResult> results(threads.size());
    std::vector<detail::FusedLaneState<ConditionalBranchPredictor>> lanes(
        threads.size());
    std::vector<size_t> next_block(threads.size(), 0);
    std::vector<uint32_t> next_branch(threads.size(), 0);
    std::vector<detail::KernelWalkState> walks(
        threads.size(), detail::KernelWalkState(lghist_path, sim.historyAge));
    for (size_t t = 0; t < threads.size(); ++t) {
        results[t].name = threads[t]->name();
        results[t].sim.stats.setInstructions(threads[t]->instructions());
        lanes[t].predictor = &shared;
        lanes[t].result = &results[t].sim;
    }

    // The bank-number recurrence lives in the fetch hardware and spans
    // threads (fetch slots interleave on the real machine).
    BankScheduler bank_sched;

    // One round gives every thread with blocks left one fetch block.
    for (bool fetched = true; fetched;) {
        fetched = false;
        for (size_t t = 0; t < threads.size(); ++t) {
            const BlockStream &stream = *threads[t];
            const size_t b = next_block[t];
            if (b == stream.blocks())
                continue;
            fetched = true;

            // Shared-history straw man: every thread reads and writes
            // walk 0.
            detail::runFusedStreamKernelRange(
                stream, &lanes[t], 1, sim, bank_sched, b, b + 1,
                next_branch[t], walks[config.perThreadHistory ? t : 0],
                next_branch[t]);
            next_block[t] = b + 1;
            next_branch[t] += stream.blockShape(b).numBranches;
        }
    }
    return results;
}

} // namespace ev8
