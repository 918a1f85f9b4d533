/**
 * @file
 * Checkpoint/resume journal for experiment grids.
 *
 * A long grid run that dies (OOM kill, preemption, ctrl-C) should not
 * throw away its finished cells. The engine journals every completed
 * cell's full job output -- BenchResult, private MetricRegistry and
 * buffered misprediction events -- to a per-batch JSONL file under
 * EV8_CHECKPOINT_DIR. A re-run of the same grid loads the journal,
 * skips the finished cells, and merges restored and fresh outputs in
 * the same submission order, so the resumed run's artifacts are
 * byte-identical to an uninterrupted run's (the existing determinism
 * guarantee, extended across process deaths).
 *
 * File naming and staleness: the file name carries a content hash over
 * everything that identifies the grid -- batch index, workload profile
 * hashes and branch budgets, per-row label, predictor name and storage
 * bits, and every SimConfig field -- plus kFormatVersion. A different
 * grid (or a format bump) maps to a different file; a journal whose
 * header disagrees with the expected hash/cell-count is discarded and
 * regenerated, never trusted.
 *
 * Durability model: records are appended one flushed line at a time,
 * and the loader skips unparseable lines, so a record torn by a crash
 * costs exactly that cell (it is simply re-run). Numeric fields
 * round-trip exactly: u64 values are serialized as decimal strings
 * (JSON numbers lose precision past 2^53) and doubles as the hex bit
 * pattern of their IEEE-754 representation -- restoring a cell
 * reproduces the bytes a live run would have merged.
 *
 * Journal files persist after a successful run: re-running a finished
 * grid restores every cell (cells that *failed* are never journaled,
 * so they are retried). The files encode simulation semantics only by
 * version/hash, so clear EV8_CHECKPOINT_DIR after changing predictor
 * or simulator code the hash cannot see.
 */

#ifndef EV8_SIM_CHECKPOINT_HH
#define EV8_SIM_CHECKPOINT_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event_trace.hh"
#include "obs/metrics.hh"
#include "sim/cell_executor.hh"
#include "sim/suite_runner.hh"

namespace ev8
{

class GridCheckpoint
{
  public:
    /**
     * Bump when the record encoding or the grid-hash recipe changes:
     * journals from older builds must be discarded, not misread.
     */
    static constexpr unsigned kFormatVersion = 2;

    /** EV8_CHECKPOINT_DIR, or "" (checkpointing disabled). */
    static std::string defaultDir();

    /**
     * @param dir checkpoint directory; "" disables the journal (load()
     *        returns nothing, append() is a no-op).
     * @param grid_hash content hash identifying this exact grid batch.
     * @param cells total cell count of the batch (sanity-checked
     *        against the journal header).
     */
    GridCheckpoint(std::string dir, uint64_t grid_hash, size_t cells);

    GridCheckpoint(const GridCheckpoint &) = delete;
    GridCheckpoint &operator=(const GridCheckpoint &) = delete;

    bool enabled() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

    /**
     * Loads the journal (if any) and opens it for appending. Returns
     * the restored cells (result, metrics, events) keyed by cell
     * index. A missing file starts a fresh journal; a header mismatch
     * (foreign grid, older format) or an unreadable file discards the
     * journal and starts fresh; unparseable record lines (torn
     * appends, injected corruption) are skipped individually. Never throws: any journal problem degrades
     * to "those cells re-run". Call once, before append().
     */
    std::map<size_t, CellOutput> load();

    /**
     * Journals one completed cell: a single flushed JSONL record.
     * Thread-safe (workers call it as cells finish; record order in
     * the file does not matter, the loader keys by cell index). Write
     * failures warn once and disable further journaling -- they never
     * fail the run.
     */
    void append(size_t cell, const BenchResult &result,
                const MetricRegistry &metrics,
                const std::vector<MispredictEvent> &events);

  private:
    void disableWrites(const std::string &reason);

    std::string path_;
    uint64_t hash_ = 0;
    size_t cells_ = 0;

    std::mutex mutex_; //!< guards out_ and warned_
    std::ofstream out_;
    bool writable_ = false;
    bool warned_ = false;
};

/**
 * Encodes one completed cell's full output -- BenchResult, private
 * MetricRegistry and buffered misprediction events -- as a single JSONL
 * record (no trailing newline). Scalars round-trip exactly (u64 as
 * decimal strings, doubles as IEEE-754 bit-pattern hex), which is why
 * the serve wire protocol reuses this codec verbatim: a cell shipped to
 * a client and merged there produces the same bytes a local merge
 * would.
 */
std::string encodeCellRecord(size_t cell, const BenchResult &result,
                             const MetricRegistry &metrics,
                             const std::vector<MispredictEvent> &events);

/**
 * Parses one encodeCellRecord() line into @p out's result, metrics and
 * events and returns the cell index. Throws std::runtime_error on any
 * malformation (including a cell index >= @p cells).
 */
size_t decodeCellRecord(const std::string &line, size_t cells,
                        CellOutput &out);

} // namespace ev8

#endif // EV8_SIM_CHECKPOINT_HH
