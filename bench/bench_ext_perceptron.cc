/**
 * @file
 * Section 9 extension: the paper's future-work direction -- backup
 * predictors with different information vectors (perceptron [11],
 * local history) against the EV8 and its brute-force scaling. Also
 * demonstrates the 21264-style tournament hybrid the EV8 moved away
 * from (Section 3).
 */

#include "bench_common.hh"
#include "serve/grids.hh"

using namespace ev8;

int
main(int argc, char **argv)
{
    const GridSpec *grid = findGrid("ext-perceptron");
    BenchContext ctx(argc, argv, grid->benchId, grid->title);

    runAndPrint(ctx, *grid);

    printShapeNotes({
        "the perceptron exploits long histories linearly and is "
        "competitive per bit on correlation-dominated benchmarks -- "
        "the reason Section 9 names it a promising backup direction",
        "it cannot express non-linear history functions, so it does "
        "not dominate the table-based EV8 across the suite",
        "the previous-generation 21264 tournament, at a fraction of "
        "the budget, trails the EV8-class predictors everywhere -- and "
        "its local component is what Section 3 shows cannot scale to "
        "16 predictions/cycle",
        "the EV8 + perceptron-backup hierarchy beats both components: "
        "exactly the Section 9 recipe (a backup with a different "
        "information vector rescues the primary's hard branches)",
    });
    return ctx.finish();
}
