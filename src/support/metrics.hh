/**
 * @file
 * Process-wide metrics registry: counters, gauges, and fixed-bucket
 * histograms (DESIGN.md §11, docs/OBSERVABILITY.md).
 *
 * Hot-path contract: Counter::add / Histogram::record are one relaxed
 * fetch_add on a cache-line-padded per-thread shard — no locks, no
 * allocation, no shared-line contention between threads. Registration
 * and snapshot/exposition are cold paths behind a mutex.
 *
 * Timing instrumentation (anything that needs a clock read per event —
 * task latency, per-lane phase timing, barrier waits) is additionally
 * gated behind metrics::timingEnabled(), a single relaxed atomic load,
 * so the fully-disabled build-in cost on engine hot paths is one
 * predictable branch. Plain event counters (requests served, sessions
 * opened, instances run) are always on: they sit on paths that already
 * pay a syscall or a mutex, where one shard add is noise.
 *
 * Metric values never feed back into simulation results: traces,
 * checkpoints, and batch/campaign JSON stay byte-identical whether
 * observability is off, on, or mid-scrape (enforced by
 * tests/sim/observability_determinism_test.cc).
 */

#ifndef ASIM_SUPPORT_METRICS_HH
#define ASIM_SUPPORT_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace asim::metrics {

/** Nanoseconds on the steady clock; the time base for every duration
 *  metric and for tracing.cc span timestamps. */
uint64_t nowNs();

/** True when timing instrumentation should run (set by --trace-out,
 *  by the serve daemon, or explicitly). One relaxed load. */
bool timingEnabled();

/** Flip timing instrumentation on or off process-wide. */
void setTimingEnabled(bool on);

namespace detail {

/** Shard count for per-thread accumulation. Threads hash onto shards
 *  by a monotonically assigned thread index, so up to kShards threads
 *  accumulate with zero sharing; beyond that shards are reused (still
 *  lock-free, occasionally contended). */
constexpr size_t kShards = 16;

/** Stable small index for the calling thread, used to pick a shard. */
size_t shardIndex();

struct alignas(64) PaddedU64
{
    std::atomic<uint64_t> v{0};
};

} // namespace detail

/** Monotonic event counter with sharded lock-free accumulation. */
class Counter
{
  public:
    void add(uint64_t n = 1) noexcept
    {
        shards_[detail::shardIndex()].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Sum of all shards (snapshot-consistent enough for exposition). */
    uint64_t value() const noexcept
    {
        uint64_t sum = 0;
        for (const auto &s : shards_)
            sum += s.v.load(std::memory_order_relaxed);
        return sum;
    }

  private:
    std::array<detail::PaddedU64, detail::kShards> shards_;
};

/** Signed instantaneous value plus a high-water mark. Single atomic:
 *  gauges track things like live sessions or queue depth, where the
 *  write rate is low and a shared line is fine. */
class Gauge
{
  public:
    void set(int64_t v) noexcept
    {
        value_.store(v, std::memory_order_relaxed);
        bumpPeak(v);
    }

    void add(int64_t delta) noexcept
    {
        const int64_t now =
            value_.fetch_add(delta, std::memory_order_relaxed) + delta;
        bumpPeak(now);
    }

    int64_t value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Highest value ever set/reached (never decreases). */
    int64_t peak() const noexcept
    {
        return peak_.load(std::memory_order_relaxed);
    }

  private:
    void bumpPeak(int64_t candidate) noexcept
    {
        int64_t cur = peak_.load(std::memory_order_relaxed);
        while (candidate > cur &&
               !peak_.compare_exchange_weak(cur, candidate,
                                            std::memory_order_relaxed))
        {}
    }

    std::atomic<int64_t> value_{0};
    std::atomic<int64_t> peak_{0};
};

/** Fixed-bucket histogram. Bucket i counts samples <= bounds[i]; one
 *  implicit overflow bucket counts the rest. Recording is a sharded
 *  relaxed fetch_add like Counter; bucket search is a short linear
 *  scan (bucket counts are small, typically <= 24). */
class Histogram
{
  public:
    /** Aggregated view merged across shards. */
    struct Snapshot
    {
        std::vector<uint64_t> bounds; ///< upper bounds, ascending
        std::vector<uint64_t> counts; ///< bounds.size() + 1 entries
        uint64_t count = 0;           ///< total samples
        uint64_t sum = 0;             ///< sum of sample values

        /** Approximate quantile (0..1) using bucket upper bounds. */
        uint64_t quantile(double q) const;
        double mean() const
        {
            return count ? double(sum) / double(count) : 0.0;
        }
    };

    explicit Histogram(std::vector<uint64_t> bounds);

    void record(uint64_t v) noexcept
    {
        Shard &s = shards_[detail::shardIndex()];
        size_t b = 0;
        while (b < bounds_.size() && v > bounds_[b])
            ++b;
        s.buckets[b].fetch_add(1, std::memory_order_relaxed);
        s.sum.fetch_add(v, std::memory_order_relaxed);
    }

    Snapshot snapshot() const;

    /** `count` exponentially spaced upper bounds starting at `first`,
     *  each `factor` x the previous — the standard latency ladder. */
    static std::vector<uint64_t> exponentialBounds(uint64_t first,
                                                   double factor,
                                                   size_t count);

  private:
    struct Shard
    {
        std::vector<std::atomic<uint64_t>> buckets;
        std::atomic<uint64_t> sum{0};
    };

    std::vector<uint64_t> bounds_;
    std::array<Shard, detail::kShards> shards_;
};

/** Everything the registry knows, merged and ready to render. */
struct RegistrySnapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, std::pair<int64_t, int64_t>> gauges; // value, peak
    std::map<std::string, Histogram::Snapshot> histograms;
};

/**
 * Process-wide name -> metric table. Lookup-or-create takes a mutex
 * (cold; call sites cache the returned reference), accumulation never
 * does. Metrics are never removed, so returned references stay valid
 * for the process lifetime.
 */
class Registry
{
  public:
    static Registry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** Bounds are fixed at first registration; later calls with the
     *  same name return the existing histogram regardless of bounds. */
    Histogram &histogram(const std::string &name,
                         std::vector<uint64_t> bounds);

    RegistrySnapshot snapshot() const;

    /** One `name value` line per metric (histograms render count/sum/
     *  mean/p50/p95/p99), sorted by name. */
    std::string textExposition() const;

    /** JSON object {counters:{}, gauges:{}, histograms:{}} with full
     *  bucket arrays — the payload of the serve METRICS opcode and the
     *  `asim_metrics` block of --trace-out files. */
    std::string jsonExposition() const;

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/** Shorthands against the global registry. */
inline Counter &
counter(const std::string &name)
{
    return Registry::global().counter(name);
}

inline Gauge &
gauge(const std::string &name)
{
    return Registry::global().gauge(name);
}

inline Histogram &
histogram(const std::string &name, std::vector<uint64_t> bounds)
{
    return Registry::global().histogram(name, std::move(bounds));
}

/** RAII duration sample: records now - start into a histogram when
 *  destroyed, if timing was enabled at construction. */
class ScopedTimerNs
{
  public:
    explicit ScopedTimerNs(Histogram &h)
        : hist_(timingEnabled() ? &h : nullptr),
          start_(hist_ ? nowNs() : 0)
    {}

    ~ScopedTimerNs()
    {
        if (hist_)
            hist_->record(nowNs() - start_);
    }

    ScopedTimerNs(const ScopedTimerNs &) = delete;
    ScopedTimerNs &operator=(const ScopedTimerNs &) = delete;

  private:
    Histogram *hist_;
    uint64_t start_;
};

} // namespace asim::metrics

#endif // ASIM_SUPPORT_METRICS_HH
