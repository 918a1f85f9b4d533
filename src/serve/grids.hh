/**
 * @file
 * Named experiment grids: the one definition of each figure's rows,
 * shared by the batch figure binaries and the serve protocol.
 *
 * A served client opens a session by grid *name* ("fig5"), not by
 * shipping predictor constructors over the wire. For the served
 * artifacts to be byte-identical to the batch binary's, both sides must
 * agree on everything that feeds the export rows: the row labels, the
 * row order, the predictors (hence storage bits) and each row's
 * information vector. This registry is that agreement -- every
 * registry-driven batch binary (bench_fig5_schemes, ...) runs the same
 * GridSpec the server resolves a session's grid name against.
 *
 * A row is the engine's own GridRow: a pure predictor factory (so the
 * batch binary and the server build identical predictors), an
 * uninstrumented SimConfig carrying the row's information vector, and
 * the label. Callers attach their sinks with buildGridRows().
 */

#ifndef EV8_SERVE_GRIDS_HH
#define EV8_SERVE_GRIDS_HH

#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/suite_runner.hh"

namespace ev8
{

/** One named grid: an id, its banner identity, and its rows in order. */
struct GridSpec
{
    std::string id;      //!< wire / --grid name ("fig5")
    std::string benchId; //!< experiment id for the banner ("Fig. 5")
    std::string title;   //!< experiment title for the banner
    std::vector<GridRow> rows; //!< uninstrumented configs (no sinks)
};

/**
 * One scheme of the "fig6" grid: a contiguous run of its rows, one per
 * swept history length, in row order. The conventional log2(size)
 * length is always among them.
 */
struct HistorySweep
{
    std::string label;             //!< the scheme ("2Bc-gskew 256Kb")
    unsigned log2Size = 0;         //!< the conventional history length
    std::vector<unsigned> lengths; //!< one grid row per length
};

/** The "fig6" grid's schemes, in row order. */
const std::vector<HistorySweep> &fig6Sweeps();

/** The registry. @returns null for an unknown id. */
const GridSpec *findGrid(const std::string &id);

/** Registered grid ids, for --help / error messages. */
std::vector<std::string> knownGrids();

/**
 * An empty SimConfig{} (no sinks) to instrument before buildGridRows():
 * every row carries its own information vector.
 */
SimConfig baseConfig(const GridSpec &grid);

/**
 * @p grid's rows with @p config's observability hooks (metrics,
 * events) and forceGenericKernel attached -- batch and served callers
 * attach different sinks to identical simulation fields.
 */
std::vector<GridRow> buildGridRows(const GridSpec &grid,
                                   const SimConfig &config);

} // namespace ev8

#endif // EV8_SERVE_GRIDS_HH
