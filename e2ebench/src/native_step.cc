/**
 * @file
 * The `native-step` workload: Simulation with engine=native (generated
 * C++, host compiler, persistent simulator child over a pipe) on a
 * seeded ~200-component design with memories, driven by one caller
 * with a seeded stream of step(), run(1024), value() and snapshot()
 * then restore() calls. Verified by replaying the stream on an
 * in-process vm Simulation; the replay's timings are the vm base of
 * the native ratios. Also the host-compiler part of the layer ledger.
 */

#include <array>
#include <memory>
#include <optional>
#include <sstream>

#include "analysis/resolve.hh"
#include "bench.hh"
#include "codegen/codegen.hh"
#include "codegen/native.hh"
#include "sim/checkpoint.hh"
#include "sim/simulation.hh"
#include "support/logging.hh"

namespace bench {

namespace {

constexpr uint64_t kChunkCycles = 1024;

enum class Kind : uint8_t
{
    Step,
    RunChunk,
    Value,
    Snapshot,
    Restore,
    Count
};

constexpr size_t kKinds = static_cast<size_t>(Kind::Count);

constexpr const char *kKindName[kKinds] = {
    "native.step", "native.run_chunk", "native.value", "native.snapshot",
    "native.restore"};

struct Op
{
    Kind kind = Kind::Step;
    uint32_t arg = 0; ///< VALUE name index
};

/**
 * The seeded call stream (per ten thousand): step() 4850, run(1024)
 * 50, value() 3000, snapshot() 1200, restore() of the last snapshot
 * 900 (a snapshot() when there is none yet). run(1024) is the one call
 * whose cost is mostly simulated cycles; at 0.5% it sits above the p99,
 * which falls among the calls that move state over the pipe. Compute
 * swings with the shared host far more than a round trip does: at
 * 1.5% run(1024) set the p99 from inside its own mode, and that p99
 * spread three times as wide from seed to seed.
 */
class OpStream
{
  public:
    OpStream(uint64_t seed, size_t names)
        : rng_(stream(seed, 0x4e4f)), names_(names)
    {}

    Op
    next()
    {
        Op op;
        const uint64_t r = rng_.below(10000);
        if (r < 4850) {
            op.kind = Kind::Step;
        } else if (r < 4900) {
            op.kind = Kind::RunChunk;
        } else if (r < 7900) {
            op.kind = Kind::Value;
            op.arg = uint32_t(rng_.below(names_));
        } else if (r < 9100 || !hasSnap_) {
            op.kind = Kind::Snapshot;
            hasSnap_ = true;
        } else {
            op.kind = Kind::Restore;
        }
        return op;
    }

  private:
    asim::SplitMix64 rng_;
    size_t names_;
    bool hasSnap_ = false;
};

/**
 * Checkpoint bytes of a snapshot, for comparison across engines, with
 * the two fields the native engine documents as its own left out:
 * the input byte cursor (its child's stdin position; in-process
 * engines leave kNoIoCursor) and the statistics beyond the cycle
 * count (DESIGN.md: the native adapter's stats() counts cycles only).
 * Machine state, cycle and input value count must match byte for
 * byte.
 */
std::string
portableBytes(asim::EngineSnapshot snap)
{
    snap.ioBytes = asim::kNoIoCursor;
    const uint64_t cycles = snap.stats.cycles;
    snap.stats.reset();
    snap.stats.cycles = cycles;
    return asim::encodeCheckpoint(snap, 0, "bench");
}

/** Execute one call; returns the reply digest. `last` holds the most
 *  recent snapshot, `timed` receives the call's own duration, and
 *  `record` puts it in the span log. */
uint64_t
exec(asim::Simulation &sim, const Op &op,
     const std::vector<std::string> &names, asim::EngineSnapshot &last,
     uint64_t &timed, bool record)
{
    uint64_t h = static_cast<uint64_t>(op.kind);
    Span span(record ? kKindName[size_t(op.kind)] : nullptr, "native");
    switch (op.kind) {
      case Kind::Step:
        sim.step();
        timed = span.stop();
        return hashMix(h, sim.cycle());
      case Kind::RunChunk:
        sim.run(kChunkCycles);
        timed = span.stop();
        return hashMix(h, sim.cycle());
      case Kind::Value: {
        const int32_t v = sim.value(names[op.arg]);
        timed = span.stop();
        return hashMix(h, uint32_t(v));
      }
      case Kind::Snapshot:
        last = sim.snapshot();
        timed = span.stop();
        return hashMix(h, hashBytes(portableBytes(last)));
      case Kind::Restore:
        sim.restore(last);
        timed = span.stop();
        return hashMix(h, sim.cycle());
      default:
        break;
    }
    timed = span.stop();
    return h;
}

std::string
designText(uint64_t seed)
{
    return asim::generateSyntheticText(nativeDesign(seed));
}

} // namespace

WorkloadResult
runNativeStep(const RunConfig &cfg, unsigned setups, LayerMetrics &layers)
{
    WorkloadResult res;
    const std::string text = designText(cfg.seed);
    const std::vector<std::string> names = valueNames(text);

    asim::SimulationOptions so;
    so.specText = text;
    so.engine = "native";
    so.ioMode = asim::IoMode::Null;

    // The caller and the simulator child share one CPU for the whole
    // run (set-up included: the child inherits it at spawn).
    std::optional<PinToOneCpu> pin(std::in_place);

    // Set-up: parse, resolve, generate C++, host-compile, spawn the
    // simulator child. Each set-up builds into its own fresh
    // directory, so none is served from the process's build cache.
    setTraced(cfg.trace);
    std::unique_ptr<asim::Simulation> sim;
    std::string dir;
    for (unsigned i = 0; i < setups; ++i) {
        sim.reset();
        if (!dir.empty())
            removeTree(dir);
        dir = cfg.workDir + "/native-" + std::to_string(i);
        makeDir(dir, true);
        so.workDir = dir;
        Span s("setup.native", "e2e");
        sim = std::make_unique<asim::Simulation>(so);
        res.setupSeconds.push_back(s.seconds());
    }

    OpStream ops(cfg.seed, names.size());
    DigestLog digests(cfg.workDir + "/native-digests");
    std::array<LatencyHist, kKinds> byKind;
    asim::EngineSnapshot last;

    // Phase time is the time spent inside the facade calls.
    auto phase = [&](double seconds, SliceMeter &slices) {
        uint64_t busy = 0;
        const uint64_t deadline = nowNs() + uint64_t(seconds * 1e9);
        while (nowNs() < deadline) {
            const Op op = ops.next();
            const uint64_t before = sim->cycle();
            uint64_t ns = 0;
            ++res.attempted;
            try {
                digests.push(fold32(exec(*sim, op, names, last, ns, true)));
            } catch (const asim::SimError &e) {
                ++res.failed;
                res.notes.push_back(std::string("native: ") + e.what());
                break;
            }
            busy += ns;
            byKind[size_t(op.kind)].add(ns);
            const uint64_t ran =
                sim->cycle() > before ? sim->cycle() - before : 0;
            slices.add(double(busy) * 1e-9, ns, ran);
        }
        return double(busy) * 1e-9;
    };
    res.runSeconds =
        timedPhases(cfg, phase, res.slices, layers);
    res.peakRssMb = vmHwmMb() + childrenHwmMb();
    res.opNote = "one Simulation facade call (step, run(1024), value, "
                 "snapshot or restore), 1 caller";
    sim.reset();
    pin.reset();
    removeTree(dir);
    if (cfg.trace) {
        for (size_t k = 0; k < kKinds; ++k) {
            const std::string stem = std::string(kKindName[k]) + "_us";
            layers[stem + ".p50"] = byKind[k].quantileUs(0.50);
            layers[stem + ".p99"] = byKind[k].quantileUs(0.99);
        }
    }

    // Verification: the same calls on an in-process vm Simulation.
    Span v("verify.native", "verify");
    std::vector<uint32_t> log = digests.readAll();
    if (cfg.corruptReply) {
        OpStream probe(cfg.seed, names.size());
        for (uint32_t &d : log) {
            const Kind k = probe.next().kind;
            if (k == Kind::Value || k == Kind::Snapshot) {
                d ^= 1;
                break;
            }
        }
    }
    so.engine = "vm";
    so.workDir.clear();
    asim::Simulation ref(so);
    OpStream replay(cfg.seed, names.size());
    std::array<LatencyHist, kKinds> refKind;
    asim::EngineSnapshot refLast;
    uint64_t mismatches = 0;
    for (uint32_t live : log) {
        const Op op = replay.next();
        uint64_t ns = 0;
        try {
            if (fold32(exec(ref, op, names, refLast, ns, false)) != live)
                ++mismatches;
        } catch (const asim::SimError &e) {
            ++mismatches;
            res.notes.push_back(std::string("replay: ") + e.what());
        }
        refKind[size_t(op.kind)].add(ns);
    }
    if (mismatches) {
        res.failed += mismatches;
        res.notes.push_back(std::to_string(mismatches) +
                            " replies differ from in-process vm");
    }
    if (cfg.trace) {
        layers["ref.vm.step_us"] =
            refKind[size_t(Kind::Step)].quantileUs(0.5);
        layers["ref.vm.snapshot_us"] =
            refKind[size_t(Kind::Snapshot)].quantileUs(0.5);
    }
    return res;
}

void
ledgerCodegen(const RunConfig &cfg, LayerMetrics &layers)
{
    // The engine's own codegen settings (sim/simulation.cc): serve
    // loop and state dump on, no trace sink.
    const asim::ResolvedSpec rs = asim::resolveText(designText(cfg.seed));
    asim::CodegenOptions cg;
    cg.emitTrace = false;
    cg.emitStateDump = true;
    cg.emitServeLoop = true;
    Span gen("codegen.generate", "codegen");
    asim::generateCpp(rs, cg);
    layers["codegen.generate_s"] = gen.seconds();
    // compileSpec generates again, writes the file and runs the host
    // compiler; it times the compiler invocation itself.
    const std::string dir = cfg.workDir + "/codegen";
    makeDir(dir, true);
    Span s("codegen.compile_spec", "codegen");
    const asim::NativeBuild b = asim::compileSpec(rs, cg, dir);
    s.stop();
    layers["codegen.host_compile_s"] = b.compileSeconds;
    layers["codegen.host_compile_rss_mb"] = waitedChildrenMaxRssMb();
    removeTree(dir);
}

std::string
dumpNativeInputs(uint64_t seed)
{
    const std::string text = designText(seed);
    std::ostringstream os;
    os << text << "# operations\n";
    OpStream ops(seed, valueNames(text).size());
    for (int i = 0; i < 20000; ++i) {
        const Op op = ops.next();
        os << kKindName[size_t(op.kind)] << ' ' << op.arg << '\n';
    }
    return os.str();
}

} // namespace bench
