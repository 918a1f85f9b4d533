/**
 * @file
 * Fig. 9 reproduction: effect of the wordline (shared, unhashable)
 * index bits and of the hardware constraints on the index functions
 * (Section 8.5). Rows, as in the paper:
 *
 *   address only, no path -- PC-only shared index, no path bit in lghist
 *   address only, path    -- PC-only shared index, path bit in lghist
 *   no path               -- EV8 wordline (4 hist + 2 addr bits), no
 *                            path bit in lghist
 *   EV8                   -- the shipping design
 *   complete hash         -- same geometry/information vector, no
 *                            hardware constraints on the hashing
 *   4*64K 2Bc-gskew ghist -- 512 Kbit, unconstrained, conventional
 *                            history
 */

#include "bench_common.hh"
#include "serve/grids.hh"

using namespace ev8;

int
main(int argc, char **argv)
{
    const GridSpec *grid = findGrid("fig9");
    BenchContext ctx(argc, argv, grid->benchId, grid->title);

    runAndPrint(ctx, *grid);

    printShapeNotes({
        "PC-only wordline bits restrict the shared-index distribution "
        "(clustered code addresses congest some wordlines): worst rows",
        "mixing 4 lghist bits into the wordline spreads accesses and "
        "recovers the loss",
        "path information in lghist makes its distribution more "
        "uniform and is worth more here than for the unconstrained "
        "predictor (Section 8.5)",
        "the constrained EV8 design lands within noise of the complete "
        "hash: the careful column/unshuffle engineering worked",
        "the 352 Kbit EV8 stands comparison against the 512 Kbit "
        "unconstrained ghist predictor (the paper's headline claim)",
    });
    return ctx.finish();
}
