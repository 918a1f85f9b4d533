/**
 * @file
 * Simultaneous-multithreading simulation (Section 3).
 *
 * The EV8 was an SMT processor; Section 3 argues that global-history
 * prediction is the SMT-compatible choice: each thread keeps its own
 * (cheap) global history register while sharing the predictor tables,
 * whereas local-history schemes see both their history and prediction
 * tables polluted by independent threads.
 *
 * This module interleaves several fetch-block streams block by block
 * (round-robin, two blocks per cycle as on the EV8) into one shared
 * predictor, and reports per-thread accuracy. Each fetch slot is one
 * block of the production range walk (sim/kernel.hh) for one thread:
 * the shared predictor is the lane, the thread's SimResult its output,
 * and the thread's walk state -- per-thread history (the EV8 design)
 * or a single naively shared one (the straw man) -- carries across
 * its slots, beside one bank recurrence spanning all threads. The
 * paper's evaluation section contains no SMT data -- this is the
 * repository's quantitative extension of the Section 3 argument, not a
 * figure reproduction.
 */

#ifndef EV8_SIM_SMT_HH
#define EV8_SIM_SMT_HH

#include <vector>

#include "sim/block_stream.hh"
#include "sim/simulator.hh"

namespace ev8
{

/** Per-thread outcome of an SMT run. */
struct SmtThreadResult
{
    std::string name;
    SimResult sim;
};

/** SMT run configuration. */
struct SmtConfig
{
    SimConfig sim;                 //!< information-vector configuration

    /**
     * Per-thread history registers and path state (the EV8 design:
     * "a global history register must be maintained per thread").
     * When false, all threads share one history -- the pollution straw
     * man, for comparison.
     */
    bool perThreadHistory = true;
};

/**
 * Runs the given streams as simultaneous threads over ONE shared
 * predictor instance (tables are shared; that is the point). Threads
 * are interleaved round-robin one fetch block at a time; a thread that
 * runs out of blocks simply drops out. Immediate update, as everywhere.
 */
std::vector<SmtThreadResult> simulateSmt(
    const std::vector<const BlockStream *> &threads,
    ConditionalBranchPredictor &predictor, const SmtConfig &config);

} // namespace ev8

#endif // EV8_SIM_SMT_HH
