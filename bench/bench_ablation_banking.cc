/**
 * @file
 * Design-choice ablation for Section 6: the conflict-free bank-number
 * computation. Measures, on the real fetch-block streams of the suite:
 *
 *  - how often a naive banking scheme (bank = block address bits
 *    (a6,a5)) would conflict between two dynamically successive fetch
 *    blocks (each conflict would stall one of the two blocks fetched
 *    per cycle on single-ported arrays);
 *  - that the EV8 computation produces zero conflicts, by construction;
 *  - the bank-usage balance of both schemes;
 *  - the line predictor's accuracy and the resulting front-end
 *    throughput estimate, for context (Section 2).
 */

#include <array>
#include <cstdio>

#include "bench_common.hh"
#include "common/table.hh"
#include "frontend/bank_scheduler.hh"
#include "frontend/pipeline.hh"

using namespace ev8;

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv,
                     "Ablation (Section 6)", "Conflict-free "
                                             "bank-interleaved predictor "
                                             "access");

    SuiteRunner &runner = ctx.runner();
    runner.prepareStreams();
    TextTable table;
    table.header({"benchmark", "blocks", "naive conflicts", "naive %",
                  "EV8 conflicts", "line accuracy", "fetch IPC"});

    for (size_t i = 0; i < runner.size(); ++i) {
        if (!benchQuiet())
            std::fprintf(stderr, "  running %s ...\n",
                         runner.name(i).c_str());
        const BlockStream &stream = runner.blockStream(i);

        const uint64_t blocks = stream.blocks();
        uint64_t naive_conflicts = 0, ev8_conflicts = 0;
        unsigned prev_naive = 99, prev_ev8 = 99;
        BankScheduler sched;
        FrontEndPipeline pipeline;
        std::array<uint64_t, 4> usage{};

        for (size_t b = 0; b < blocks; ++b) {
            const uint64_t addr = stream.blockAddr(b);
            const unsigned naive = static_cast<unsigned>((addr >> 5) & 3);
            const unsigned ev8 = sched.assign(addr);
            ++usage[ev8];
            if (prev_naive != 99 && naive == prev_naive)
                ++naive_conflicts;
            if (prev_ev8 != 99 && ev8 == prev_ev8)
                ++ev8_conflicts;
            prev_naive = naive;
            prev_ev8 = ev8;
            pipeline.onBlock(addr, stream.blockInstrs(b), false);
        }

        sched.publishMetrics(ctx.metrics(), "frontend.banks");
        table.row({runner.name(i), std::to_string(blocks),
                   std::to_string(naive_conflicts),
                   fmt(100.0 * double(naive_conflicts) / double(blocks),
                       1),
                   std::to_string(ev8_conflicts),
                   fmt(pipeline.stats().lineAccuracy(), 3),
                   fmt(pipeline.stats().fetchIpc(), 2)});
        ctx.recordRow(runner.name(i), 0,
                      {"blocks", "naive_conflicts", "naive_pct",
                       "ev8_conflicts", "line_accuracy", "fetch_ipc"},
                      {double(blocks), double(naive_conflicts),
                       100.0 * double(naive_conflicts) / double(blocks),
                       double(ev8_conflicts),
                       pipeline.stats().lineAccuracy(),
                       pipeline.stats().fetchIpc()});
        if (!benchQuiet())
            std::printf(
                "    %s bank usage: %.1f%% %.1f%% %.1f%% %.1f%%\n",
                runner.name(i).c_str(),
                100.0 * double(usage[0]) / double(blocks),
                100.0 * double(usage[1]) / double(blocks),
                100.0 * double(usage[2]) / double(blocks),
                100.0 * double(usage[3]) / double(blocks));
    }
    if (!benchQuiet())
        std::printf("\n%s\n", table.render().c_str());

    printShapeNotes({
        "a naive (a6,a5) banking scheme conflicts on a significant "
        "fraction of successive block pairs (sequential fetch rows "
        "alternate cleanly, but taken branches and tight loops "
        "collide)",
        "the EV8 computation produces exactly zero conflicts on every "
        "benchmark -- the Section 6.2 theorem, measured",
        "bank usage stays roughly balanced, so capacity is not wasted",
    });
    return ctx.finish();
}
