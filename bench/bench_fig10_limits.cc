/**
 * @file
 * Fig. 10 reproduction: limits of brute-force scaling for global
 * history prediction (Section 9). A 4*1M-entry (8 Mbit) 2Bc-gskew
 * against the EV8-class predictors: the return on 16x more storage is
 * small except for very-large-footprint workloads, motivating hybrid
 * backup predictors (perceptron, local) instead -- see
 * bench_ext_perceptron.
 */

#include "bench_common.hh"
#include "common/table.hh"
#include "serve/grids.hh"

using namespace ev8;

int
main(int argc, char **argv)
{
    const GridSpec *grid = findGrid("fig10");
    BenchContext ctx(argc, argv, grid->benchId, grid->title);

    const auto results = runAndPrint(ctx, *grid);

    const double mid = SuiteRunner::averageMispKI(results[1]);
    const double big = SuiteRunner::averageMispKI(results[2]);
    const double gain = mid - big;
    printShapeNotes({
        "16x the storage changes the suite average by only "
            + fmt(gain, 3) + " misp/KI (" + fmt(mid, 3) + " -> "
            + fmt(big, 3) + "): brute force has run out of road",
        "at short trace scales the 8 Mbit predictor can even lose "
        "(cold-start dominates its huge tables); with longer traces "
        "(EV8_BRANCHES_PER_BENCH >= 4M) a small benefit appears, "
        "concentrated in the large-footprint benchmarks (gcc)",
        "hence the paper's conclusion: beyond EV8-class sizes, add "
        "back-up predictors with different information vectors rather "
        "than more of the same (Section 9)",
    });
    return ctx.finish();
}
