/**
 * @file
 * Benchmark support: clocks, digests, histograms, the span log,
 * resident-memory probes and file helpers.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/resolve.hh"
#include "bench.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace bench {

namespace fs = std::filesystem;

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n == 0)
        return 0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t
hashMix(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    return h ^ (h >> 33);
}

uint64_t
hashBytes(std::string_view bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        uint64_t w = 0;
        std::memcpy(&w, bytes.data() + i, 8);
        h = (h ^ w) * 0x100000001b3ull;
    }
    for (; i < bytes.size(); ++i)
        h = (h ^ static_cast<unsigned char>(bytes[i])) * 0x100000001b3ull;
    return hashMix(h, bytes.size());
}

asim::SplitMix64
stream(uint64_t seed, uint64_t tag)
{
    return asim::SplitMix64::forIndex(seed, tag);
}

// ---------------------------------------------------------------------
// DigestLog
// ---------------------------------------------------------------------

DigestLog::DigestLog(std::string path)
    : path_(std::move(path)), file_(std::fopen(path_.c_str(), "w+b"))
{
    if (!file_)
        throw asim::SimError("cannot write " + path_);
    buf_.reserve(kBuffered);
}

DigestLog::~DigestLog()
{
    std::fclose(file_);
    std::remove(path_.c_str());
}

void
DigestLog::spill()
{
    if (std::fwrite(buf_.data(), sizeof(uint32_t), buf_.size(), file_) !=
        buf_.size())
        throw asim::SimError("cannot write " + path_);
    spilled_ += buf_.size();
    buf_.clear();
}

std::vector<uint32_t>
DigestLog::readAll()
{
    std::vector<uint32_t> all(spilled_);
    std::rewind(file_);
    if (std::fread(all.data(), sizeof(uint32_t), all.size(), file_) !=
        all.size())
        throw asim::SimError("cannot read back " + path_);
    std::fseek(file_, 0, SEEK_END);
    all.insert(all.end(), buf_.begin(), buf_.end());
    return all;
}

// ---------------------------------------------------------------------
// LatencyHist
// ---------------------------------------------------------------------

namespace {

constexpr unsigned kSubBits = 6;
constexpr unsigned kMaxBits = 40; // 2^40 ns: about 18 minutes
constexpr uint64_t kSub = 1u << kSubBits;
constexpr size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

size_t
bucketOf(uint64_t v)
{
    if (v < kSub)
        return static_cast<size_t>(v);
    v = std::min(v, (uint64_t(1) << kMaxBits) - 1);
    const unsigned msb = 63 - __builtin_clzll(v);
    const uint64_t mant = (v >> (msb - kSubBits)) & (kSub - 1);
    return (msb - kSubBits + 1) * kSub + mant;
}

} // namespace

LatencyHist::LatencyHist()
    : count_(kBuckets, 0), sum_ns_(kBuckets, 0)
{}

void
LatencyHist::add(uint64_t ns)
{
    const size_t b = bucketOf(ns);
    ++count_[b];
    sum_ns_[b] += ns;
    ++n_;
}

void
LatencyHist::merge(const LatencyHist &other)
{
    for (size_t b = 0; b < kBuckets; ++b) {
        count_[b] += other.count_[b];
        sum_ns_[b] += other.sum_ns_[b];
    }
    n_ += other.n_;
}

double
LatencyHist::quantileUs(double q) const
{
    if (n_ == 0)
        return 0;
    uint64_t rank = static_cast<uint64_t>(q * double(n_) + 0.999999);
    rank = std::clamp<uint64_t>(rank, 1, n_);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
        seen += count_[b];
        if (seen >= rank)
            return double(sum_ns_[b]) / double(count_[b]) * 1e-3;
    }
    return 0;
}

// ---------------------------------------------------------------------
// SliceMeter
// ---------------------------------------------------------------------

SliceMeter::Slice &
SliceMeter::slice(size_t i)
{
    if (i >= slices_.size())
        slices_.resize(i + 1);
    return slices_[i];
}

void
SliceMeter::add(double at, uint64_t ns, uint64_t cycles)
{
    Slice &s = slice(static_cast<size_t>(std::max(0.0, at) /
                                         kSliceSeconds));
    ++s.ops;
    s.cycles += cycles;
    s.latency.add(ns);
}

void
SliceMeter::merge(const SliceMeter &other)
{
    for (size_t i = 0; i < other.slices_.size(); ++i) {
        Slice &s = slice(i);
        s.ops += other.slices_[i].ops;
        s.cycles += other.slices_[i].cycles;
        s.latency.merge(other.slices_[i].latency);
    }
}

SliceMeter::Window
SliceMeter::window(double seconds) const
{
    Window w;
    w.whole = std::min(slices_.size(),
                       static_cast<size_t>(seconds / kSliceSeconds));
    if (w.whole == 0) {
        // Shorter than a slice: one window over everything.
        uint64_t ops = 0, cycles = 0;
        for (const Slice &s : slices_) {
            ops += s.ops;
            cycles += s.cycles;
            w.latency.merge(s.latency);
        }
        w.opsPerS = seconds > 0 ? double(ops) / seconds : 0;
        w.cyclesPerS = seconds > 0 ? double(cycles) / seconds : 0;
        return w;
    }
    std::vector<double> ops, cycles;
    for (size_t i = 0; i < w.whole; ++i) {
        ops.push_back(double(slices_[i].ops) / kSliceSeconds);
        cycles.push_back(double(slices_[i].cycles) / kSliceSeconds);
        w.latency.merge(slices_[i].latency);
    }
    w.opsPerS = median(ops);
    w.cyclesPerS = median(cycles);
    return w;
}

LatencyHist
SliceMeter::all() const
{
    LatencyHist h;
    for (const Slice &s : slices_)
        h.merge(s.latency);
    return h;
}

uint64_t
SliceMeter::totalCycles() const
{
    uint64_t total = 0;
    for (const Slice &s : slices_)
        total += s.cycles;
    return total;
}

std::string
SliceMeter::describe(double seconds) const
{
    std::ostringstream os;
    const size_t whole = static_cast<size_t>(seconds / kSliceSeconds);
    for (size_t i = 0; i < whole && i < slices_.size(); ++i)
        os << (i ? " " : "") << slices_[i].ops << "/"
           << std::lround(slices_[i].latency.quantileUs(0.5)) << "/"
           << std::lround(slices_[i].latency.quantileUs(0.99));
    return os.str();
}

// ---------------------------------------------------------------------
// Span log
// ---------------------------------------------------------------------

namespace {

std::atomic<uint64_t> gNextSpanId{1};
std::atomic<uint32_t> gNextTid{0};
thread_local std::vector<uint64_t> tOpenSpans;
thread_local uint32_t tTid = gNextTid.fetch_add(1);

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

} // namespace

SpanLog &
SpanLog::global()
{
    static SpanLog log;
    return log;
}

void
SpanLog::add(const Event &ev)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (++perName_[ev.name] > kMaxPerName) {
        ++dropped_;
        return;
    }
    events_.push_back(ev);
}

void
SpanLog::writeChromeTrace(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &extra) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os << "{\"traceEvents\": [\n";
    uint64_t base = ~0ull;
    for (const Event &ev : events_)
        base = std::min(base, ev.startNs);
    for (size_t i = 0; i < events_.size(); ++i) {
        const Event &ev = events_[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                      "\"pid\": 1, \"tid\": %u",
                      double(ev.startNs - base) * 1e-3,
                      double(ev.durNs) * 1e-3, ev.tid);
        os << "{\"name\": \"" << jsonEscape(ev.name) << "\", \"cat\": \""
           << jsonEscape(ev.cat) << "\", " << buf
           << ", \"args\": {\"id\": " << ev.id
           << ", \"parent\": " << ev.parent << "}}"
           << (i + 1 < events_.size() ? ",\n" : "\n");
    }
    os << "]";
    for (const auto &[key, json] : extra)
        os << ",\n\"" << key << "\": " << json;
    os << "}\n";
    writeFile(path, os.str());
}

std::string
SpanLog::selfTimeTable() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<uint64_t, uint64_t> childNs; // span id -> covered by kids
    for (const Event &ev : events_) {
        if (ev.parent)
            childNs[ev.parent] += ev.durNs;
    }
    struct Row
    {
        uint64_t count = 0, total = 0, self = 0;
    };
    std::map<std::string, Row> rows; // by span name
    for (const Event &ev : events_) {
        Row &r = rows[ev.name];
        ++r.count;
        r.total += ev.durNs;
        auto it = childNs.find(ev.id);
        const uint64_t kids = it == childNs.end() ? 0 : it->second;
        r.self += ev.durNs > kids ? ev.durNs - kids : 0;
    }
    std::ostringstream os;
    char line[200];
    std::snprintf(line, sizeof line, "%-28s %9s %12s %12s %12s\n",
                  "span (layer call)", "count", "total_ms", "self_ms",
                  "mean_us");
    os << line;
    for (const auto &[name, r] : rows) {
        std::snprintf(line, sizeof line,
                      "%-28s %9llu %12.3f %12.3f %12.2f\n",
                      name.c_str(),
                      static_cast<unsigned long long>(r.count),
                      double(r.total) * 1e-6, double(r.self) * 1e-6,
                      double(r.total) * 1e-3 / double(r.count));
        os << line;
    }
    if (dropped_)
        os << "(" << dropped_ << " per-operation spans past "
           << kMaxPerName << " of one name not recorded)\n";
    return os.str();
}

Span::Span(const char *name, const char *cat)
    : name_(name), cat_(cat), start_(nowNs())
{
    if (name_ && SpanLog::global().enabled()) {
        id_ = gNextSpanId.fetch_add(1);
        parent_ = tOpenSpans.empty() ? 0 : tOpenSpans.back();
        tOpenSpans.push_back(id_);
    }
}

uint64_t
Span::stop()
{
    if (!open_)
        return dur_;
    open_ = false;
    dur_ = nowNs() - start_;
    if (id_) {
        if (!tOpenSpans.empty() && tOpenSpans.back() == id_)
            tOpenSpans.pop_back();
        SpanLog::global().add(
            {name_, cat_, start_, dur_, tTid, id_, parent_});
    }
    return dur_;
}

void
setTraced(bool on)
{
    SpanLog::global().setEnabled(on);
    asim::metrics::setTimingEnabled(on);
}

double
timedPhases(const RunConfig &cfg, const PhaseFn &phase, SliceMeter &slices,
            LayerMetrics &layers)
{
    {
        SliceMeter s;
        phase(kWarmupSeconds, s);
    }
    if (!cfg.trace)
        return phase(cfg.seconds, slices);
    if (cfg.probe) {
        setTraced(true);
        return phase(cfg.seconds, slices);
    }
    // Untraced and traced blocks alternate, so drift in the host's
    // speed over the run falls on both sides alike.
    constexpr int kBlocks = 10;
    SliceMeter plain, traced;
    double wall = 0;
    for (int b = 0; b < kBlocks; ++b) {
        setTraced(b % 2 == 1);
        wall += phase(cfg.seconds / kBlocks, b % 2 ? traced : plain);
    }
    // Medians: a mixed stream's rare slow operations (a resume, a
    // long chunk) would swamp a per-operation overhead in the means.
    const LatencyHist p = plain.all(), t = traced.all();
    if (p.count() && t.count()) {
        layers["trace.overhead_pct"] =
            (t.quantileUs(0.5) / p.quantileUs(0.5) - 1) * 100;
    }
    slices.merge(plain);
    slices.merge(traced);
    return wall;
}

// ---------------------------------------------------------------------
// Seeded designs
// ---------------------------------------------------------------------

asim::SyntheticOptions
largeDesign(uint64_t seed)
{
    // The scaling corpus' layered ~30k shape; only the wiring seed
    // comes from the workload seed.
    asim::SyntheticOptions o = asim::syntheticPreset("30000");
    o.seed = static_cast<uint32_t>(stream(seed, 0x4c41).next());
    return o;
}

asim::SyntheticOptions
serveDesign(uint64_t seed, unsigned conn)
{
    asim::SyntheticOptions o = asim::syntheticPreset("1000");
    o.seed = static_cast<uint32_t>(stream(seed, 0x5356 + conn).next());
    return o;
}

asim::SyntheticOptions
nativeDesign(uint64_t seed)
{
    // ~200 components with memories; I/O-free so the in-process
    // reference engine needs no input script.
    asim::SyntheticOptions o;
    o.alus = 170;
    o.selectors = 24;
    o.memories = 6;
    o.withIo = false;
    o.tracedPercent = 0;
    o.dynamicFunctPercent = 25;
    o.seed = static_cast<uint32_t>(stream(seed, 0x4e41).next());
    return o;
}

// ---------------------------------------------------------------------
// Memory probes and files
// ---------------------------------------------------------------------

PinToOneCpu::PinToOneCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

PinToOneCpu::~PinToOneCpu()
{
    if (pinned_)
        sched_setaffinity(0, sizeof saved_, &saved_);
}

double
vmHwmMb(int pid)
{
    std::ifstream in(pid ? "/proc/" + std::to_string(pid) + "/status"
                         : std::string("/proc/self/status"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0;
}

double
childrenHwmMb()
{
    const std::string self = std::to_string(getpid());
    double total = 0;
    std::error_code ec;
    for (const auto &ent : fs::directory_iterator("/proc", ec)) {
        const std::string pid = ent.path().filename();
        if (pid.empty() || !std::isdigit(static_cast<unsigned char>(pid[0])))
            continue;
        std::ifstream in(ent.path() / "stat");
        std::string stat;
        std::getline(in, stat);
        // pid (comm) state ppid ...; comm may hold spaces.
        const size_t close = stat.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream rest(stat.substr(close + 1));
        std::string state, ppid;
        rest >> state >> ppid;
        if (ppid == self)
            total += vmHwmMb(std::atoi(pid.c_str()));
    }
    return total;
}

double
waitedChildrenMaxRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_CHILDREN, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

std::vector<std::string>
valueNames(std::string_view specText)
{
    const asim::ResolvedSpec rs = asim::resolveText(specText);
    std::vector<std::string> names;
    for (const auto &[name, slot] : rs.varSlots)
        names.push_back(name);
    for (const auto &[name, index] : rs.memIndexes)
        names.push_back(name);
    std::sort(names.begin(), names.end());
    return names;
}

void
makeDir(const std::string &path, bool fresh)
{
    if (fresh)
        fs::remove_all(path);
    fs::create_directories(path);
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    fs::remove_all(path, ec);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw asim::SimError("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw asim::SimError("cannot write " + path);
}

} // namespace bench
