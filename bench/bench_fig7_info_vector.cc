/**
 * @file
 * Fig. 7 reproduction: impact of the information vector on prediction
 * accuracy for a 4*64K-entry 2Bc-gskew (Section 8.3): conventional
 * branch history -> lghist without path -> lghist with path -> three
 * fetch blocks old lghist -> the full EV8 information vector (3-old
 * lghist + path information from the three last blocks).
 */

#include "bench_common.hh"
#include "serve/grids.hh"

using namespace ev8;

int
main(int argc, char **argv)
{
    // The rows come from the shared "fig7" grid registry
    // (serve/grids.hh): one definition of the labels, predictors and
    // per-row information vectors for the batch artifact and a served
    // client's -- CI's serve gate compares the two.
    const GridSpec *grid = findGrid("fig7");
    BenchContext ctx(argc, argv, grid->benchId, grid->title);

    const auto results = runAndPrint(ctx, *grid);
    printBars("EV8 info vector, misp/KI per benchmark:", results[4]);

    printShapeNotes({
        "lghist performs in the same range as conventional branch "
        "history: the loss from compressing each fetch block to one "
        "bit is balanced by covering more branches per history bit "
        "(Table 3)",
        "embedding path information in lghist is generally beneficial "
        "(it de-aliases otherwise identical histories)",
        "using three-fetch-blocks-old history degrades accuracy, but "
        "the impact is limited",
        "path information from the three skipped blocks recovers most "
        "of the aging loss: the EV8 vector ends close to ghist",
    });
    return ctx.finish();
}
