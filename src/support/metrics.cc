#include "support/metrics.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

namespace asim::metrics {

namespace {

std::atomic<bool> g_timingEnabled{false};

/** Render a double without locale surprises and without trailing
 *  noise: fixed, 3 decimals. */
std::string
fmtDouble(double v)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(3);
    os << v;
    return os.str();
}

void
appendJsonKey(std::string &out, const std::string &name)
{
    // Metric names are library-chosen (dotted identifiers), but escape
    // defensively so exposition can never emit invalid JSON.
    out += '"';
    for (char c : name) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            out += "?";
            continue;
        }
        out += c;
    }
    out += '"';
}

} // namespace

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

bool
timingEnabled()
{
    return g_timingEnabled.load(std::memory_order_relaxed);
}

void
setTimingEnabled(bool on)
{
    g_timingEnabled.store(on, std::memory_order_relaxed);
}

namespace detail {

size_t
shardIndex()
{
    static std::atomic<size_t> nextThread{0};
    thread_local const size_t idx =
        nextThread.fetch_add(1, std::memory_order_relaxed) % kShards;
    return idx;
}

} // namespace detail

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds))
{
    std::sort(bounds_.begin(), bounds_.end());
    bounds_.erase(std::unique(bounds_.begin(), bounds_.end()),
                  bounds_.end());
    for (auto &s : shards_)
        s.buckets = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot snap;
    snap.bounds = bounds_;
    snap.counts.assign(bounds_.size() + 1, 0);
    for (const auto &s : shards_) {
        for (size_t i = 0; i < s.buckets.size(); ++i)
            snap.counts[i] +=
                s.buckets[i].load(std::memory_order_relaxed);
        snap.sum += s.sum.load(std::memory_order_relaxed);
    }
    for (uint64_t c : snap.counts)
        snap.count += c;
    return snap;
}

uint64_t
Histogram::Snapshot::quantile(double q) const
{
    if (count == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    const uint64_t rank =
        static_cast<uint64_t>(q * double(count - 1)) + 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        seen += counts[i];
        if (seen >= rank) {
            // Overflow bucket has no upper bound; report the largest
            // finite bound (or the mean if there are no bounds).
            if (i < bounds.size())
                return bounds[i];
            return bounds.empty() ? static_cast<uint64_t>(mean())
                                  : bounds.back();
        }
    }
    return bounds.empty() ? 0 : bounds.back();
}

std::vector<uint64_t>
Histogram::exponentialBounds(uint64_t first, double factor, size_t count)
{
    std::vector<uint64_t> bounds;
    bounds.reserve(count);
    double v = double(first);
    for (size_t i = 0; i < count; ++i) {
        const auto b = static_cast<uint64_t>(v);
        if (bounds.empty() || b > bounds.back())
            bounds.push_back(b);
        v *= factor;
    }
    return bounds;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry &
Registry::global()
{
    static Registry *r = new Registry(); // leaked: outlives all threads
    return *r;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name, std::vector<uint64_t> bounds)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>(std::move(bounds));
    return *slot;
}

RegistrySnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    RegistrySnapshot snap;
    for (const auto &[name, c] : counters_)
        snap.counters[name] = c->value();
    for (const auto &[name, g] : gauges_)
        snap.gauges[name] = {g->value(), g->peak()};
    for (const auto &[name, h] : histograms_)
        snap.histograms[name] = h->snapshot();
    return snap;
}

std::string
Registry::textExposition() const
{
    const RegistrySnapshot snap = snapshot();
    std::ostringstream os;
    for (const auto &[name, v] : snap.counters)
        os << name << " " << v << "\n";
    for (const auto &[name, vp] : snap.gauges)
        os << name << " " << vp.first << "\n"
           << name << ".peak " << vp.second << "\n";
    for (const auto &[name, h] : snap.histograms) {
        os << name << ".count " << h.count << "\n"
           << name << ".sum " << h.sum << "\n"
           << name << ".mean " << fmtDouble(h.mean()) << "\n"
           << name << ".p50 " << h.quantile(0.50) << "\n"
           << name << ".p95 " << h.quantile(0.95) << "\n"
           << name << ".p99 " << h.quantile(0.99) << "\n";
    }
    return os.str();
}

std::string
Registry::jsonExposition() const
{
    const RegistrySnapshot snap = snapshot();
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto &[name, v] : snap.counters) {
        if (!first)
            out += ",";
        first = false;
        appendJsonKey(out, name);
        out += ":" + std::to_string(v);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto &[name, vp] : snap.gauges) {
        if (!first)
            out += ",";
        first = false;
        appendJsonKey(out, name);
        out += ":{\"value\":" + std::to_string(vp.first) +
               ",\"peak\":" + std::to_string(vp.second) + "}";
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : snap.histograms) {
        if (!first)
            out += ",";
        first = false;
        appendJsonKey(out, name);
        out += ":{\"count\":" + std::to_string(h.count) +
               ",\"sum\":" + std::to_string(h.sum) +
               ",\"mean\":" + fmtDouble(h.mean()) +
               ",\"p50\":" + std::to_string(h.quantile(0.50)) +
               ",\"p95\":" + std::to_string(h.quantile(0.95)) +
               ",\"p99\":" + std::to_string(h.quantile(0.99)) +
               ",\"bounds\":[";
        for (size_t i = 0; i < h.bounds.size(); ++i) {
            if (i)
                out += ",";
            out += std::to_string(h.bounds[i]);
        }
        out += "],\"buckets\":[";
        for (size_t i = 0; i < h.counts.size(); ++i) {
            if (i)
                out += ",";
            out += std::to_string(h.counts[i]);
        }
        out += "]}";
    }
    out += "}}";
    return out;
}

} // namespace asim::metrics
