/**
 * @file
 * `asim-e2ebench` — the end-to-end benchmark's measuring program
 * (driven by e2ebench/run.py; see e2ebench/README.md).
 *
 *   asim-e2ebench --workload W --seed N --seconds S --trace 0|1
 *                 --serve-bin PATH --specs-dir DIR --work-dir DIR
 *                 [--commit SHA] [--corrupt-reply]
 *   asim-e2ebench --dump-inputs FILE --workload W --seed N
 *                 --specs-dir DIR
 *
 * Workloads: large-vm, large-lanes4, serve-mixed, native-step. The
 * last line of standard output is one JSON object
 * {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
 * end-to-end metrics, with --trace 1 the per-layer metrics of the
 * traced run (which also writes a Chrome trace to the work dir).
 * Exit status 3 means the workload was skipped (native-step without a
 * host compiler); no result line is printed then.
 */

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "codegen/native.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

#ifndef BENCH_COMPILER
#define BENCH_COMPILER "unknown"
#endif
#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace bench;

/** Length of the traced run's probes of the layers the named workload
 *  does not drive (serve, native). */
constexpr double kProbeSeconds = 2.0;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric of the traced run, in report order. */
const std::vector<MetricDef> kLayerMetrics = {
    {"lang.parse_s", "s"},
    {"analysis.resolve_s", "s"},
    {"analysis.resolve_nodiag_s", "s"},
    {"analysis.checkdcl_s", "s"},
    {"sim.vm_build_s", "s"},
    {"sim.vm.ns_per_cycle", "ns"},
    {"sim.interp.ns_per_cycle", "ns"},
    {"sim.alu_evals_per_cycle", "count"},
    {"sim.sel_evals_per_cycle", "count"},
    {"sim.run_call_us", "us"},
    {"partition.plan_s", "s"},
    {"partition.ns_per_cycle", "ns"},
    {"partition.speedup_vs_interp", "ratio"},
    {"partition.speedup_vs_vm", "ratio"},
    {"partition.barrier_wait_share", "ratio"},
    {"checkpoint.encode_us", "us"},
    {"checkpoint.decode_us", "us"},
    {"checkpoint.bytes", "bytes"},
    {"codegen.generate_s", "s"},
    {"codegen.host_compile_s", "s"},
    {"codegen.host_compile_rss_mb", "MB"},
    {"native.step_us.p50", "us"},
    {"native.step_us.p99", "us"},
    {"native.run_chunk_us.p50", "us"},
    {"native.run_chunk_us.p99", "us"},
    {"native.value_us.p50", "us"},
    {"native.value_us.p99", "us"},
    {"native.snapshot_us.p50", "us"},
    {"native.snapshot_us.p99", "us"},
    {"native.restore_us.p50", "us"},
    {"native.restore_us.p99", "us"},
    {"ref.vm.step_us", "us"},
    {"ref.vm.snapshot_us", "us"},
    {"serve.connect_ms", "ms"},
    {"serve.open_ms", "ms"},
    {"serve.run1_us.p50", "us"},
    {"serve.run1_us.p99", "us"},
    {"serve.run_pipelined_us.p50", "us"},
    {"serve.run_pipelined_us.p99", "us"},
    {"serve.run_chunk_us.p50", "us"},
    {"serve.run_chunk_us.p99", "us"},
    {"serve.value_us.p50", "us"},
    {"serve.value_us.p99", "us"},
    {"serve.snapshot_us.p50", "us"},
    {"serve.snapshot_us.p99", "us"},
    {"serve.restore_us.p50", "us"},
    {"serve.restore_us.p99", "us"},
    {"serve.evict_us.p50", "us"},
    {"serve.evict_us.p99", "us"},
    {"serve.resume_us.p50", "us"},
    {"serve.resume_us.p99", "us"},
    {"serve.wire_overhead_us", "us"},
    {"trace.overhead_pct", "%"},
};

const std::vector<std::string> kWorkloads = {"large-vm", "large-lanes4",
                                             "serve-mixed", "native-step"};

std::string
jsonNumber(double v)
{
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** CPU time the hypervisor gave to other guests ("steal") and all
 *  CPU time, in ticks, from /proc/stat; zeros when unreadable. */
std::pair<uint64_t, uint64_t>
cpuTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t v[8] = {}, total = 0;
    in >> cpu;
    for (uint64_t &x : v) {
        in >> x;
        total += x;
    }
    return {v[7], total}; // user nice system idle iowait irq softirq steal
}

/** The host and build record printed with every result. */
std::string
hostRecord(const RunConfig &cfg, const std::string &commit,
           bool hostCompiler)
{
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": " << jsonString(cpuModel())
       << ", \"compiler\": " << jsonString(BENCH_COMPILER)
       << ", \"build_type\": " << jsonString(BENCH_BUILD_TYPE)
       << ", \"commit\": " << jsonString(commit)
       << ", \"workload\": " << jsonString(cfg.workload)
       << ", \"seed\": " << cfg.seed
       << ", \"seconds\": " << jsonNumber(cfg.seconds)
       << ", \"trace\": " << (cfg.trace ? 1 : 0)
       << ", \"host_compiler\": " << (hostCompiler ? "true" : "false")
       << "}";
    return os.str();
}

WorkloadResult
runWorkload(const RunConfig &cfg, unsigned setups, LayerMetrics &layers,
            std::string *daemonMetrics)
{
    if (cfg.workload == "large-vm")
        return runLarge(cfg, 1, setups, layers);
    if (cfg.workload == "large-lanes4")
        return runLarge(cfg, 4, setups, layers);
    if (cfg.workload == "serve-mixed")
        return runServeMixed(cfg, setups, layers, daemonMetrics);
    return runNativeStep(cfg, setups, layers);
}

void
printNotes(const WorkloadResult &r)
{
    for (const std::string &n : r.notes)
        std::cout << "note: " << n << "\n";
}

std::string
resultLine(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<std::pair<MetricDef, double>> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[def, value] : metrics) {
        os << (first ? "" : ", ") << "\"" << def.name
           << "\": {\"value\": " << jsonNumber(value) << ", \"unit\": \""
           << def.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

int
runUntraced(const RunConfig &cfg)
{
    LayerMetrics unused;
    // The daemon set-up is milliseconds and jittery: repeat it more.
    const unsigned setups = cfg.workload == "serve-mixed" ? 15 : 3;
    const auto ticks0 = cpuTicks();
    const WorkloadResult r = runWorkload(cfg, setups, unused, nullptr);
    const auto ticks1 = cpuTicks();
    const SliceMeter::Window w =
        r.slices.window(r.runSeconds);
    const uint64_t n = w.latency.count();

    std::cout << "workload " << cfg.workload << ": operation = "
              << r.opNote << "\n";
    std::cout << "set-up samples (s):";
    for (double s : r.setupSeconds)
        std::cout << " " << s;
    std::cout << "\n";
    std::vector<std::pair<MetricDef, double>> m = {
        {{"setup_s", "s"}, median(r.setupSeconds)},
        {{"sim_cycles_per_s", "1/s"}, w.cyclesPerS},
        {{"op_p50_us", "us"}, w.latency.quantileUs(0.50)},
        {{"op_p99_us", "us"}, w.latency.quantileUs(0.99)},
        {{"ops_per_s", "1/s"}, w.opsPerS},
        {{"peak_rss_mb", "MB"}, r.peakRssMb},
    };
    const char *what[] = {
        "median set-up, spec text in hand to ready for the first cycle",
        "simulated cycles per host wall-clock second, all sessions; "
        "median slice",
        "median operation latency, host wall clock",
        "99th percentile operation latency, host "
        "wall clock",
        "operations completed per host wall-clock second, closed "
        "loop; median slice",
        "peak resident memory: this process + long-lived children"};
    for (size_t i = 0; i < m.size(); ++i) {
        std::cout << "metric " << m[i].first.name << " = " << m[i].second
                  << " " << m[i].first.unit << "  (" << what[i] << ")\n";
    }
    std::cout << "samples: " << n << " operations in " << w.whole
              << " whole " << SliceMeter::kSliceSeconds << " s slices, "
              << uint64_t(n * 0.01) << " beyond the p99; "
              << r.slices.all().count() << " operations and "
              << r.slices.totalCycles() << " simulated cycles in "
              << r.runSeconds << " s\n"
              << "latency quantiles (us):";
    for (double q : {0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999})
        std::cout << " p" << q * 100 << "=" << w.latency.quantileUs(q);
    std::cout << "\nper slice, operations/p50 us/p99 us: "
              << r.slices.describe(r.runSeconds) << "\n";
    const double errorRate =
        r.attempted ? double(r.failed) / double(r.attempted) : 1.0;
    std::cout << "metric error_rate = " << errorRate << " ratio  ("
              << r.failed << " failed / " << r.attempted
              << " attempted: thrown errors, ERR replies and "
                 "verification mismatches)\n";
    if (ticks1.second > ticks0.second) {
        // A share well above zero means the host was overcommitted
        // and every timing of this run reads slow.
        std::cout << "host steal over the run: "
                  << 100.0 * double(ticks1.first - ticks0.first) /
                         double(ticks1.second - ticks0.second)
                  << "% of CPU time\n";
    }
    printNotes(r);
    bool correct = r.failed == 0 && r.attempted > 0;
    for (const auto &[def, v] : m) {
        if (!std::isfinite(v) || v <= 0) {
            std::cout << "note: metric " << def.name << " is " << v
                      << "\n";
            correct = false;
        }
    }
    std::cout << resultLine(correct, r.attempted, r.failed, m)
              << std::endl;
    return 0;
}

int
runTraced(const RunConfig &cfg, bool hostCompiler, const std::string &host,
          const std::string &outDir)
{
    LayerMetrics layers;
    std::string daemonMetrics;
    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> notes;
    auto fold = [&](const WorkloadResult &r) {
        attempted += r.attempted;
        failed += r.failed;
        for (const std::string &n : r.notes)
            notes.push_back(n);
    };

    // The host compiler first: its footprint is read from the waited
    // children's peak, before any other child has been waited for.
    setTraced(true);
    if (hostCompiler)
        ledgerCodegen(cfg, layers);

    fold(runWorkload(cfg, 1, layers, &daemonMetrics));

    setTraced(true);
    ledgerLarge(cfg, layers);
    ledgerCheckpointAndRunCall(cfg, layers);

    RunConfig probe = cfg;
    probe.seconds = kProbeSeconds;
    probe.probe = true;
    probe.corruptReply = false;
    // Probes trace throughout, so they add no trace.overhead_pct.
    if (cfg.workload != "serve-mixed")
        fold(runServeMixed(probe, 1, layers, &daemonMetrics));
    if (cfg.workload != "native-step" && hostCompiler)
        fold(runNativeStep(probe, 1, layers));
    if (layers.count("serve.run1_us.p50") && layers.count("sim.run_call_us"))
        layers["serve.wire_overhead_us"] =
            layers["serve.run1_us.p50"] - layers["sim.run_call_us"];
    setTraced(false);

    const std::string tracePath =
        outDir + "/trace-" + cfg.workload + ".json";
    std::vector<std::pair<std::string, std::string>> extra = {
        {"asim_metrics",
         asim::metrics::Registry::global().jsonExposition()},
        {"host", host}};
    if (!daemonMetrics.empty()) {
        extra.emplace_back("serve_metrics", daemonMetrics);
        writeFile(outDir + "/serve-metrics-" + cfg.workload + ".json",
                  daemonMetrics + "\n");
    }
    SpanLog::global().writeChromeTrace(tracePath, extra);

    std::cout << "traced run of " << cfg.workload << "; trace written to "
              << tracePath << "\n"
              << SpanLog::global().selfTimeTable();
    std::vector<std::pair<MetricDef, double>> m;
    bool correct = failed == 0 && attempted > 0;
    for (const MetricDef &def : kLayerMetrics) {
        auto it = layers.find(def.name);
        if (it == layers.end() || !std::isfinite(it->second)) {
            std::cout << "layer " << def.name << " absent"
                      << (hostCompiler ? "" : " (no host compiler)")
                      << "\n";
            correct = false;
            continue;
        }
        std::cout << "layer " << def.name << " = " << it->second << " "
                  << def.unit << "\n";
        m.emplace_back(def, it->second);
    }
    for (const std::string &n : notes)
        std::cout << "note: " << n << "\n";
    std::cout << "verification: " << failed << " failed / " << attempted
              << " attempted\n";
    std::cout << resultLine(correct, attempted, failed, m) << std::endl;
    return 0;
}

void
usage()
{
    std::cerr << "usage: asim-e2ebench --workload W --seed N --seconds S "
                 "--trace 0|1 --serve-bin PATH\n"
                 "                     --specs-dir DIR --work-dir DIR "
                 "[--commit SHA] [--corrupt-reply]\n"
                 "       asim-e2ebench --dump-inputs FILE --workload W "
                 "--seed N --specs-dir DIR\n"
                 "workloads: large-vm large-lanes4 serve-mixed "
                 "native-step\n";
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    std::string commit = "unknown";
    std::string dumpPath;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload") {
            cfg.workload = value();
        } else if (a == "--seed") {
            cfg.seed = std::stoull(value());
        } else if (a == "--seconds") {
            cfg.seconds = std::stod(value());
        } else if (a == "--trace") {
            cfg.trace = value() != "0";
        } else if (a == "--serve-bin") {
            cfg.serveBin = value();
        } else if (a == "--specs-dir") {
            cfg.specsDir = value();
        } else if (a == "--work-dir") {
            cfg.workDir = value();
        } else if (a == "--commit") {
            commit = value();
        } else if (a == "--corrupt-reply") {
            cfg.corruptReply = true;
        } else if (a == "--dump-inputs") {
            dumpPath = value();
        } else {
            usage();
            return 2;
        }
    }
    bool known = false;
    for (const std::string &w : kWorkloads)
        known = known || w == cfg.workload;
    if (!known || cfg.seconds <= 0) {
        usage();
        return 2;
    }

    try {
        if (!dumpPath.empty()) {
            std::string text;
            if (cfg.workload == "serve-mixed")
                text = dumpServeInputs(cfg);
            else if (cfg.workload == "native-step")
                text = dumpNativeInputs(cfg.seed);
            else
                text = dumpLargeInputs(cfg.seed);
            writeFile(dumpPath, text);
            return 0;
        }
        if (cfg.serveBin.empty() || cfg.workDir.empty()) {
            usage();
            return 2;
        }
        // Sockets, digest logs, state and build dirs go to a private
        // directory, removed on the way out; trace files stay.
        const std::string outDir = cfg.workDir;
        cfg.workDir = outDir + "/run-" + std::to_string(getpid());
        makeDir(cfg.workDir, true);
        struct Cleanup
        {
            std::string dir;
            ~Cleanup() { removeTree(dir); }
        } cleanup{cfg.workDir};
        const bool hostCompiler = asim::hostCompilerAvailable();
        const std::string host = hostRecord(cfg, commit, hostCompiler);
        std::cout << "host " << host << "\n";
        if (cfg.workload == "native-step" && !hostCompiler) {
            std::cout << "workload native-step skipped: no host C++ "
                         "compiler found\n";
            return 3;
        }
        return cfg.trace ? runTraced(cfg, hostCompiler, host, outDir)
                         : runUntraced(cfg);
    } catch (const std::exception &e) {
        std::cout.flush();
        std::cerr << "asim-e2ebench: " << e.what() << "\n";
        return 1;
    }
}
