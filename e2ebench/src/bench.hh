/**
 * @file
 * Shared pieces of the end-to-end benchmark (see e2ebench/README.md):
 * seeded input generation, latency histograms, the in-memory span
 * log behind the traced run, and the per-workload result record.
 *
 * Every time here is host wall-clock time from std::chrono's steady
 * clock. Simulated cycles (the modelled hardware's time) are only
 * ever counted, never converted to seconds.
 */

#ifndef ASIM_E2EBENCH_BENCH_HH
#define ASIM_E2EBENCH_BENCH_HH

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "machines/synthetic.hh"
#include "support/rand.hh"

namespace bench {

/** Host wall-clock nanoseconds (steady clock). */
uint64_t nowNs();

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(uint64_t t0, uint64_t t1)
{
    return double(t1 - t0) * 1e-9;
}

/** Median of a non-empty sample (by value; sorts a copy). */
double median(std::vector<double> v);

/** 64-bit content hash (FNV-1a, 8 bytes per step) — the reply and
 *  checkpoint digests the verifier compares. */
uint64_t hashBytes(std::string_view bytes);

/** Fold a 64-bit value into a running digest. */
uint64_t hashMix(uint64_t h, uint64_t v);

/** The 32-bit form the per-operation reply logs keep (a quarter of a
 *  copy of the reply, so the log stays small beside the program). */
inline uint32_t
fold32(uint64_t h)
{
    return static_cast<uint32_t>(h ^ (h >> 32));
}

/** The independent input stream `tag` of workload seed `seed`. */
asim::SplitMix64 stream(uint64_t seed, uint64_t tag);

/**
 * Append-only log of per-operation reply digests. It spills to a file
 * in the work dir every few thousand entries, so the benchmark's own
 * memory stays flat however many operations a run completes and
 * peak_rss_mb measures the program, not the log.
 */
class DigestLog
{
  public:
    explicit DigestLog(std::string path);
    ~DigestLog();
    DigestLog(const DigestLog &) = delete;
    DigestLog &operator=(const DigestLog &) = delete;

    void
    push(uint32_t d)
    {
        buf_.push_back(d);
        if (buf_.size() == kBuffered)
            spill();
    }
    uint64_t size() const { return spilled_ + buf_.size(); }
    /** Every digest so far, in order (verification, after timing). */
    std::vector<uint32_t> readAll();

  private:
    static constexpr size_t kBuffered = 4096;
    void spill();
    std::string path_;
    std::FILE *file_ = nullptr;
    std::vector<uint32_t> buf_;
    uint64_t spilled_ = 0;
};

/**
 * Log-linear latency histogram with fixed memory: 64 buckets per
 * power of two (under 1.6% relative width) up to 2^40 ns, each keeping
 * its count and sum, so a quantile reads as the mean of the samples in
 * its bucket. Fixed memory keeps the benchmark's own footprint out of
 * peak_rss_mb however many operations a run completes.
 */
class LatencyHist
{
  public:
    LatencyHist();
    void add(uint64_t ns);
    void merge(const LatencyHist &other);
    uint64_t count() const { return n_; }
    /** Nearest-rank quantile q in [0, 1], in microseconds; 0 when
     *  empty. */
    double quantileUs(double q) const;

  private:
    std::vector<uint64_t> count_;
    std::vector<uint64_t> sum_ns_;
    uint64_t n_ = 0;
};

/**
 * In-memory span log for the traced run. Spans nest per thread (the
 * enclosing open span is the parent); the log is written once, at the
 * end, as a Chrome trace_event file. Recording is off unless
 * setEnabled(true) — the untraced runs pay one branch per span.
 */
class SpanLog
{
  public:
    struct Event
    {
        const char *name = ""; ///< string literal
        const char *cat = "";  ///< string literal
        uint64_t startNs = 0;
        uint64_t durNs = 0;
        uint32_t tid = 0;
        uint64_t id = 0;
        uint64_t parent = 0; ///< 0 = top level
    };

    static SpanLog &global();
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void setEnabled(bool on) { enabled_ = on; }
    /** Record one event; past kMaxPerName events of one name (the
     *  per-operation spans of a long run) it is only counted. */
    void add(const Event &ev);

    /** Write {"traceEvents": [...], <extraKey>: <extraJson>...}. */
    void writeChromeTrace(
        const std::string &path,
        const std::vector<std::pair<std::string, std::string>> &extra)
        const;

    /** The per-span-name table: count, total and self time (total
     *  minus the time covered by child spans). */
    std::string selfTimeTable() const;

  private:
    static constexpr uint64_t kMaxPerName = 5000;
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<Event> events_;
    std::map<std::string, uint64_t> perName_; ///< recorded + dropped
    uint64_t dropped_ = 0;
};

/**
 * RAII span around one call into a layer; also the benchmark's
 * stopwatch, so the number a metric reports and the span the trace
 * shows are the same interval. A null `name` times without recording.
 */
class Span
{
  public:
    Span(const char *name, const char *cat);
    ~Span() { stop(); }
    /** Close the span (idempotent); returns its duration in ns. */
    uint64_t stop();
    double seconds() { return double(stop()) * 1e-9; }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    const char *cat_;
    uint64_t start_;
    uint64_t dur_ = 0;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    bool open_ = true;
};

/**
 * Operations per fixed slice of phase time: each slice keeps its
 * operation and simulated-cycle counts and its own latency histogram.
 *
 * The rates a run reports are the median over its whole slices, so a
 * stall of a few slices on the shared host does not move them; the
 * latency quantiles come from every operation in those slices.
 */
class SliceMeter
{
  public:
    static constexpr double kSliceSeconds = 0.5;

    /** What a run reports, read from its whole slices. */
    struct Window
    {
        double opsPerS = 0;    ///< median over the whole slices
        double cyclesPerS = 0; ///< median over the whole slices
        LatencyHist latency;   ///< every operation in the whole slices
        size_t whole = 0; ///< slices wholly inside the phase
    };

    /** One operation that took `ns` and ran `cycles` simulated cycles,
     *  finished `at` seconds into the phase. */
    void add(double at, uint64_t ns, uint64_t cycles);
    void merge(const SliceMeter &other);
    /** The slices wholly inside `seconds` (everything, as one
     *  window, when the phase is shorter than a slice). */
    Window window(double seconds) const;
    /** Every operation's latency, in or out of whole slices. */
    LatencyHist all() const;
    uint64_t totalCycles() const;
    /** "operations/p50/p99" (us) of each whole slice, for the
     *  report. */
    std::string describe(double seconds) const;

  private:
    struct Slice
    {
        uint64_t ops = 0;
        uint64_t cycles = 0;
        LatencyHist latency;
    };
    Slice &slice(size_t i);
    std::vector<Slice> slices_;
};

/** The layer-level numbers of one traced run, by metric name. */
using LayerMetrics = std::map<std::string, double>;

/** What one workload run reports. */
struct WorkloadResult
{
    std::vector<double> setupSeconds; ///< one per repeated set-up
    double runSeconds = 0;            ///< timed phase, host wall clock
    SliceMeter slices; ///< rates and latencies of the timed phase
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double peakRssMb = 0;
    std::string opNote; ///< what one operation is, for the report
    std::vector<std::string> notes;
};

/** Command-line settings shared by every workload. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string serveBin; ///< the built asim-serve daemon
    std::string specsDir; ///< the repository's specs/ machines
    std::string workDir;  ///< scratch space inside the checkout
    bool corruptReply = false; ///< verifier self-test
    /** Traced run, layer probe: trace the whole timed phase instead of
     *  alternating untraced and traced blocks. */
    bool probe = false;
};

/** Turn the traced run's instrumentation on or off: the span log and
 *  the library's timing metrics (metrics::setTimingEnabled). */
void setTraced(bool on);

/** One timed phase of `seconds`: adds every completed operation to
 *  `slices` (timed from the phase's start), and returns the phase's
 *  host wall-clock seconds. */
using PhaseFn = std::function<double(double seconds, SliceMeter &slices)>;

/** Untimed lead-in before the timed phase (first-touch allocations,
 *  first evictions, cold caches); its operations are still verified. */
inline constexpr double kWarmupSeconds = 1.0;

/**
 * Run a workload's timed phase as the configuration asks, after the
 * warm-up: untraced for cfg.seconds; or, in the traced run, alternating
 * untraced and traced blocks on the same live engines (recording
 * trace.overhead_pct, the traced blocks' median operation time over
 * the untraced blocks'); or, for a layer probe, traced throughout.
 * Returns the wall seconds.
 */
double timedPhases(const RunConfig &cfg, const PhaseFn &phase,
                   SliceMeter &slices, LayerMetrics &layers);

/// @{ Seeded inputs. The program under test only ever receives what
/// these produce (spec text) plus the seeded operation streams.
asim::SyntheticOptions largeDesign(uint64_t seed);
asim::SyntheticOptions serveDesign(uint64_t seed, unsigned conn);
asim::SyntheticOptions nativeDesign(uint64_t seed);
/// @}

/**
 * Confine the calling thread, and every process it starts while this
 * lives, to the CPU it is running on; the old affinity comes back at
 * scope exit. With a caller and a child process taking turns over a
 * pipe, a round trip is then a direct switch on one CPU, not a wake-up
 * on another whose cost turns on where the scheduler put the child.
 */
class PinToOneCpu
{
  public:
    PinToOneCpu();
    ~PinToOneCpu();
    PinToOneCpu(const PinToOneCpu &) = delete;
    PinToOneCpu &operator=(const PinToOneCpu &) = delete;

  private:
    cpu_set_t saved_;
    bool pinned_ = false;
};

/** Peak resident set (VmHWM) of process `pid` (0 = self), in MiB;
 *  0 when unreadable. */
double vmHwmMb(int pid = 0);

/** Sum of VmHWM over this process's live direct children (the serve
 *  daemon, native simulator children). */
double childrenHwmMb();

/** Largest resident set among waited-for descendants (getrusage
 *  RUSAGE_CHILDREN), in MiB — the host compiler's footprint. */
double waitedChildrenMaxRssMb();

/** The component names an operation stream may read with VALUE:
 *  every combinational output and memory latch, sorted. */
std::vector<std::string> valueNames(std::string_view specText);

/** Create `path` (and parents); remove it first when `fresh`. */
void makeDir(const std::string &path, bool fresh);
void removeTree(const std::string &path);
std::string readFile(const std::string &path);
void writeFile(const std::string &path, const std::string &text);

/// @{ Workloads. Each runs its set-up `setups` times, then the timed
/// phase, then verifies every recorded reply against a second engine.
/// With cfg.trace set-up and verification are traced, the timed
/// phase runs as timedPhases() says, and the layer numbers the
/// workload sees land in `layers`.
WorkloadResult runLarge(const RunConfig &cfg, unsigned partitions,
                        unsigned setups, LayerMetrics &layers);
WorkloadResult runServeMixed(const RunConfig &cfg, unsigned setups,
                             LayerMetrics &layers,
                             std::string *daemonMetrics);
WorkloadResult runNativeStep(const RunConfig &cfg, unsigned setups,
                             LayerMetrics &layers);
/// @}

/// @{ Layer ledger pieces of the traced run (front end, engines,
/// partitioning and checkpoint on this seed's designs; the host
/// compiler on the native design).
void ledgerLarge(const RunConfig &cfg, LayerMetrics &layers);
void ledgerCheckpointAndRunCall(const RunConfig &cfg,
                                LayerMetrics &layers);
void ledgerCodegen(const RunConfig &cfg, LayerMetrics &layers);
/// @}

/// @{ Seed-determinism self-test: write the inputs a workload would
/// send (spec text and the first operations of each stream).
std::string dumpLargeInputs(uint64_t seed);
std::string dumpServeInputs(const RunConfig &cfg);
std::string dumpNativeInputs(uint64_t seed);
/// @}

} // namespace bench

#endif // ASIM_E2EBENCH_BENCH_HH
