/**
 * @file
 * The metric registry: named counters, gauges and fixed-bucket
 * histograms that components register into by name.
 *
 * Naming convention (dotted paths, lower_snake leaf names):
 *
 *     sim.fetch_blocks            counter, simulator-level tallies
 *     lghist.bits_inserted        counter, history-compression stats
 *     pred.<name>.bank<k>.*       counter, per-bank predictor internals
 *     frontend.banks.*            counter, bank-scheduler occupancy
 *     core.storage.<table>.*      counter/gauge, physical-array accesses
 *
 * The registry hands out stable references: a Counter& stays valid for
 * the registry's lifetime, so hot paths can hold the pointer and bump it
 * without a map lookup. Registering the same name twice returns the same
 * metric; registering it as a different kind throws std::logic_error
 * (name collisions are bugs, not data).
 *
 * Concurrency model: *updates* to already-registered metrics (inc, set,
 * observe) are lock-free and safe from any number of threads --
 * counters, gauges and histogram buckets are atomics. *Registration*
 * (counter()/gauge()/histogram() creating a new name) mutates the map
 * and must be serialized by the caller. The experiment engine sidesteps
 * the distinction entirely: every parallel job gets a private registry,
 * merged into the shared one with merge() in deterministic submission
 * order.
 */

#ifndef EV8_OBS_METRICS_HH
#define EV8_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ev8
{

/** Monotonic event count. Concurrent inc() calls are lock-free. */
class Counter
{
  public:
    void inc(uint64_t n = 1) { v.fetch_add(n, std::memory_order_relaxed); }
    uint64_t value() const { return v.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v{0};
};

/** Last-written point-in-time value. Concurrent set() is lock-free. */
class Gauge
{
  public:
    void set(double value) { v.store(value, std::memory_order_relaxed); }
    double value() const { return v.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v{0.0};
};

/**
 * Fixed-bucket histogram: @p upper_bounds are ascending inclusive bucket
 * upper edges; one implicit overflow bucket catches everything above the
 * last bound (so bucketCounts().size() == bounds().size() + 1).
 * Concurrent observe() calls on a constructed histogram are lock-free.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> upper_bounds);

    /** Records @p count observations of value @p value. */
    void observe(double value, uint64_t count = 1);

    /**
     * Folds @p other into this histogram (bucket counts, count and sum
     * add). Bounds must match exactly; a mismatch throws
     * std::logic_error.
     */
    void merge(const Histogram &other);

    /**
     * Adds a previously exported state verbatim: @p bucket_counts (one
     * entry per bound plus the overflow bucket) fold into the bucket
     * counters and @p count / @p sum into the totals. The
     * checkpoint/restore path uses this to rebuild a job's histogram
     * bit-exactly (the sum is restored from its serialized bit
     * pattern, not re-derived from observations). A bucket-count size
     * mismatch throws std::logic_error.
     */
    void injectState(const std::vector<uint64_t> &bucket_counts,
                     uint64_t count, double sum);

    const std::vector<double> &bounds() const { return bounds_; }

    /** Snapshot of the per-bucket counts (bounds + overflow). */
    std::vector<uint64_t> bucketCounts() const;

    uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const { return sum_.load(std::memory_order_relaxed); }
    double mean() const;

  private:
    void addToSum(double delta);

    std::vector<double> bounds_;
    std::vector<std::atomic<uint64_t>> counts_;
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

class MetricRegistry
{
  public:
    /** Gets or creates the named counter. */
    Counter &counter(const std::string &name);

    /** Gets or creates the named gauge. */
    Gauge &gauge(const std::string &name);

    /**
     * Gets or creates the named histogram. Re-registration must repeat
     * the same bounds; a mismatch throws std::logic_error.
     */
    Histogram &histogram(const std::string &name,
                         std::vector<double> upper_bounds);

    bool has(const std::string &name) const;
    size_t size() const { return items.size(); }

    /** Value of a counter, or 0 if it was never registered. */
    uint64_t counterValue(const std::string &name) const;

    /**
     * Folds @p other into this registry: counters add, gauges take
     * @p other's value (last write wins), histograms add bucket-wise.
     * A name registered as different kinds in the two registries (or a
     * histogram bounds mismatch) throws std::logic_error. Calling
     * merge() per job in submission order makes a parallel run's
     * registry identical to the serial run's.
     */
    void merge(const MetricRegistry &other);

    /** One registered metric, for exporters. */
    struct Entry
    {
        const std::string *name = nullptr;
        MetricKind kind = MetricKind::Counter;
        const Counter *counter = nullptr;
        const Gauge *gauge = nullptr;
        const Histogram *histogram = nullptr;
    };

    /** All metrics in lexicographic name order (deterministic export). */
    std::vector<Entry> entries() const;

  private:
    struct Holder
    {
        MetricKind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Holder &find(const std::string &name, MetricKind kind);

    std::map<std::string, Holder> items;
};

} // namespace ev8

#endif // EV8_OBS_METRICS_HH
