/**
 * @file
 * The per-trace phase map: the stream tiled into fixed-branch-budget
 * windows, each labelled with a phase ID by the online classifier.
 *
 * A PhaseMap is a pure function of (stream content, window budget,
 * phase cap), which makes it cacheable next to the stream: TraceCache
 * persists it as a `phase-...` sidecar keyed by the same profile
 * content hash as the .ev8s files, with the same temp-file +
 * atomic-rename write discipline and the same trust-but-verify read
 * (name, branch total, window budget and phase cap must all match, or
 * the sidecar is discarded and rebuilt).
 *
 * The windows tile the stream exactly -- every block belongs to one
 * window -- so per-phase branch/instruction totals summed over the map
 * reproduce the stream totals, which is what the stratified
 * extrapolation (sample_plan.hh) relies on.
 */

#ifndef EV8_SIM_PHASE_PHASE_MAP_HH
#define EV8_SIM_PHASE_PHASE_MAP_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ev8
{

class BlockStream; // sim/block_stream.hh

/** One window of the tiling: blocks [blockBegin, blockEnd). */
struct PhaseWindow
{
    uint64_t blockBegin = 0;  //!< first block of the window
    uint64_t blockEnd = 0;    //!< one past the last block
    uint64_t branchBegin = 0; //!< flat branch index at blockBegin
    uint64_t branches = 0;    //!< conditional branches in the window
    uint64_t instrs = 0;      //!< instructions in the window
    uint32_t phaseId = 0;     //!< classifier label (dense, from 0)

    bool operator==(const PhaseWindow &) const = default;
};

struct PhaseMap
{
    /**
     * Bump when the feature extraction, the classifier, or the
     * serialized layout change: a stale sidecar must be rejected and
     * rebuilt, never trusted.
     */
    static constexpr uint32_t kFormatVersion = 1;

    std::string name;             //!< trace name (verification key)
    uint64_t branches = 0;        //!< stream branch total
    uint64_t instructions = 0;    //!< stream instruction total
    uint64_t windowBranches = 0;  //!< per-window branch budget
    uint32_t maxPhases = 0;       //!< classifier cap used
    uint32_t phases = 0;          //!< phases actually founded
    std::vector<PhaseWindow> windows;

    bool operator==(const PhaseMap &) const = default;
};

/**
 * Tiles @p stream into windows of ~@p window_branches conditional
 * branches (block-aligned; the last window absorbs the remainder),
 * extracts each window's features and classifies them online with at
 * most @p max_phases phases. Deterministic.
 */
PhaseMap buildPhaseMap(const BlockStream &stream,
                       uint64_t window_branches, uint32_t max_phases);

/**
 * Serializes @p map. Throws TraceIoError on I/O failure. Versioned;
 * readers of a different version reject the file.
 */
void writePhaseMap(std::ostream &out, const PhaseMap &map);
void writePhaseMapFile(const std::string &path, const PhaseMap &map);

/** Parses a serialized map. Throws TraceIoError on malformed input. */
PhaseMap readPhaseMap(std::istream &in);
PhaseMap readPhaseMapFile(const std::string &path);

} // namespace ev8

#endif // EV8_SIM_PHASE_PHASE_MAP_HH
