/**
 * @file
 * Design-choice ablation: the partial update policy of Section 4.2
 * versus total update, on both the hardware EV8 and the unconstrained
 * 2Bc-gskew, plus e-gskew for reference ([15] first reported the
 * effect).
 */

#include "bench_common.hh"
#include "serve/grids.hh"

using namespace ev8;

int
main(int argc, char **argv)
{
    // The rows come from the shared grid registry (serve/grids.hh) so
    // the batch artifact and a served "ablation-update-policy" client's
    // artifact are built from one definition of the labels, predictors
    // and per-row configs -- CI's serve gate compares the two.
    const GridSpec *grid = findGrid("ablation-update-policy");
    BenchContext ctx(argc, argv, grid->benchId, grid->title);

    runAndPrint(ctx, *grid);

    printShapeNotes({
        "partial update beats total update for 2Bc-gskew and e-gskew "
        "(better space utilization; Rationale 1 leaves agreeing "
        "counters soft so colliding branches can steal them)",
        "partial update also enables the split prediction/hysteresis "
        "arrays: a correct prediction writes only the hysteresis array "
        "(Section 4.3)",
    });
    return ctx.finish();
}
