/**
 * @file
 * Fig. 5 reproduction: branch prediction accuracy of global-history
 * schemes at EV8-class memorization budgets, each at its best history
 * length (Section 8.2). Conventional (per-branch) global history.
 *
 * The rows come from the shared "fig5" grid registry (serve/grids.hh),
 * the same table the serve protocol resolves session grids against --
 * so the batch artifact and a served client's artifact are built from
 * one definition of the labels, predictors and configs.
 */

#include "bench_common.hh"
#include "serve/grids.hh"

using namespace ev8;

int
main(int argc, char **argv)
{
    const GridSpec *grid = findGrid("fig5");
    BenchContext ctx(argc, argv, grid->benchId, grid->title);

    const auto results = runAndPrint(ctx, *grid);
    printBars("2Bc-gskew 512Kb, misp/KI per benchmark:", results[1]);

    printShapeNotes({
        "2Bc-gskew outperforms the other schemes at equal budget, "
        "except YAGS (no clear winner between those two)",
        "the de-aliased schemes (2Bc-gskew, bi-mode, YAGS) beat the "
        "2 Mbit gshare despite a fraction of its storage",
        "go is the hardest benchmark for every scheme; "
        "m88ksim/perl/vortex the easiest",
        "doubling 2Bc-gskew from 256Kb to 512Kb helps most on the "
        "large-footprint benchmarks (gcc, go)",
    });
    return ctx.finish();
}
