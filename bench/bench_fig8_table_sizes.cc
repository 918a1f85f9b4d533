/**
 * @file
 * Fig. 8 reproduction: adjusting table sizes (Section 8.4). Base
 * configuration is the 4*64K-entry / 512 Kbit 2Bc-gskew under the EV8
 * information vector; "small BIM" shrinks the bimodal table to 16K
 * entries; "EV8 size" additionally halves the G0 and Meta hysteresis
 * tables, reaching the 352 Kbit hardware budget.
 */

#include "bench_common.hh"
#include "serve/grids.hh"

using namespace ev8;

int
main(int argc, char **argv)
{
    // The rows come from the shared "fig8" grid registry
    // (serve/grids.hh) so the batch artifact and a served client's are
    // built from one definition of the labels, predictors and configs
    // -- CI's serve gate compares the two.
    const GridSpec *grid = findGrid("fig8");
    BenchContext ctx(argc, argv, grid->benchId, grid->title);

    runAndPrint(ctx, *grid);

    printShapeNotes({
        "shrinking BIM from 64K to 16K entries has no impact: each "
        "static branch maps to one bimodal entry, so the big table was "
        "sparsely used (Section 4.6)",
        "half-size hysteresis on G0 and Meta is barely noticeable "
        "except on go, the benchmark with the largest footprint",
        "the full EV8-size predictor (352Kb) stays within a whisker of "
        "the 512Kb base",
    });
    return ctx.finish();
}
