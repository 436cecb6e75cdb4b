/**
 * @file
 * The `large-vm` and `large-lanes4` workloads (one seeded ~30k
 * component design on the vm engine, or on interp split across four
 * partition lanes) and the front-end / engine / partition part of
 * the layer ledger.
 */

#include <memory>
#include <sstream>
#include <utility>

#include "analysis/resolve.hh"
#include "bench.hh"
#include "lang/parser.hh"
#include "sim/bytecode.hh"
#include "sim/checkpoint.hh"
#include "sim/compiler.hh"
#include "sim/partition.hh"
#include "sim/simulation.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace bench {

namespace {

/** Cycles the verifier replays on serial interp: the workload's
 *  state is compared byte for byte at the end of the chunk that
 *  reaches this cycle. */
constexpr uint64_t kCheckCycles = 96;

/** Components whose VALUE is compared at the check point. */
constexpr size_t kCheckValues = 8;

/**
 * The seeded chunk-size stream: one run(n) facade call per chunk, n =
 * 1, 3 or 9 cycles. Every block of 50 chunks holds exactly 12 ones,
 * 37 threes and one nine (24%, 74%, 2%) in a seeded order, so each
 * 0.5 s slice carries the same mix and the slices' cycle rates differ
 * by speed, not by how many long chunks chance put in them. The sizes sit 3x apart
 * so their latency modes stay apart under host noise: the p50 falls
 * inside the 3-cycle mode and the p99 mid-way through the 9-cycle
 * one, never on a boundary between modes or in a tail.
 */
class ChunkStream
{
  public:
    explicit ChunkStream(uint64_t seed)
        : rng_(stream(seed, 0x4c43))
    {}
    uint64_t
    next()
    {
        if (pos_ == block_.size()) {
            block_.assign(12, 1);
            block_.resize(49, 3);
            block_.push_back(9);
            for (size_t i = block_.size() - 1; i > 0; --i)
                std::swap(block_[i], block_[rng_.below(i + 1)]);
            pos_ = 0;
        }
        return block_[pos_++];
    }

  private:
    asim::SplitMix64 rng_;
    std::vector<uint64_t> block_;
    size_t pos_ = 0;
};

std::vector<std::string>
checkNames(const asim::ResolvedSpec &rs, uint64_t seed)
{
    std::vector<std::string> all;
    for (const auto &[name, slot] : rs.varSlots)
        all.push_back(name);
    asim::SplitMix64 rng = stream(seed, 0x4c56);
    std::vector<std::string> picked;
    for (size_t i = 0; i < kCheckValues; ++i)
        picked.push_back(all[rng.below(all.size())]);
    return picked;
}

/** What the verifier compares at the check point. */
struct CheckState
{
    uint64_t digest = 0;  ///< checkpoint bytes, VALUE reads, cycle
    uint64_t aluEvals = 0; ///< SimStats count, reported separately
};

/**
 * Capture the check-point state. With `portableStats` the ALU
 * evaluation count is left out of the checkpoint bytes: the vm does
 * not count the constant-function ALUs it inlines, so its count
 * differs from the interpreter's (the difference is reported on every
 * run, not hidden). Partitioned and serial interp compare every byte.
 */
CheckState
captureCheck(const asim::Simulation &sim,
             const std::vector<std::string> &names, bool portableStats)
{
    asim::EngineSnapshot snap = sim.snapshot();
    CheckState c;
    c.aluEvals = snap.stats.aluEvals;
    if (portableStats)
        snap.stats.aluEvals = 0;
    uint64_t h = hashBytes(asim::encodeCheckpoint(snap, 0, "bench"));
    for (const std::string &n : names)
        h = hashMix(h, static_cast<uint32_t>(sim.value(n)));
    c.digest = hashMix(h, sim.cycle());
    return c;
}

} // namespace

WorkloadResult
runLarge(const RunConfig &cfg, unsigned partitions, unsigned setups,
         LayerMetrics &layers)
{
    WorkloadResult res;
    const std::string text =
        asim::generateSyntheticText(largeDesign(cfg.seed));

    asim::SimulationOptions so;
    so.specText = text;
    so.engine = partitions > 1 ? "interp" : "vm";
    so.partitions = partitions;
    so.ioMode = asim::IoMode::Null;

    // Set-up: spec text in hand -> ready for the first cycle.
    setTraced(cfg.trace);
    std::unique_ptr<asim::Simulation> sim;
    for (unsigned i = 0; i < setups; ++i) {
        sim.reset();
        Span s("setup.simulation", "e2e");
        sim = std::make_unique<asim::Simulation>(so);
        res.setupSeconds.push_back(s.seconds());
    }
    const std::vector<std::string> names =
        checkNames(sim->resolved(), cfg.seed);

    ChunkStream chunks(cfg.seed);
    std::vector<uint64_t> log; // chunk sizes, in op order
    uint64_t expectCycle = 0;
    size_t checkOp = ~size_t(0);
    CheckState check;
    const bool vm = partitions <= 1;

    // Phase time is the time spent inside run(): the check-point
    // capture between two calls is the benchmark's, not the caller's.
    auto phase = [&](double seconds, SliceMeter &slices) {
        uint64_t busy = 0;
        const uint64_t deadline = nowNs() + uint64_t(seconds * 1e9);
        while (nowNs() < deadline) {
            const uint64_t n = chunks.next();
            log.push_back(n);
            ++res.attempted;
            expectCycle += n;
            uint64_t ns = 0;
            try {
                Span op("sim.run_chunk", "op");
                sim->run(n);
                ns = op.stop();
            } catch (const std::exception &e) {
                ++res.failed;
                res.notes.push_back(std::string("run: ") + e.what());
                break;
            }
            busy += ns;
            slices.add(double(busy) * 1e-9, ns, n);
            if (sim->cycle() != expectCycle) {
                ++res.failed;
                expectCycle = sim->cycle();
            }
            if (checkOp == ~size_t(0) && expectCycle >= kCheckCycles) {
                checkOp = log.size() - 1;
                check = captureCheck(*sim, names, vm);
            }
        }
        return double(busy) * 1e-9;
    };
    res.runSeconds =
        timedPhases(cfg, phase, res.slices, layers);
    res.peakRssMb = vmHwmMb();
    res.opNote = "one Simulation::run(n) call, n = 1, 3 or 9 cycles "
                 "(seeded order; exactly 24%, 74%, 2% per 50)";
    sim.reset();

    // Verification: an independently parsed and resolved copy of the
    // same text on serial interp replays the chunk log up to the
    // check point; checkpoint bytes and VALUE reads must match.
    Span v("verify.large", "verify");
    if (checkOp == ~size_t(0)) {
        res.notes.push_back("run ended before the check point");
        ++res.failed;
        return res;
    }
    if (cfg.corruptReply)
        check.digest ^= 1;
    asim::SimulationOptions ro;
    ro.resolved = std::make_shared<const asim::ResolvedSpec>(
        asim::resolve(asim::parseSpec(text)));
    ro.engine = "interp";
    asim::Simulation ref(ro);
    for (size_t i = 0; i <= checkOp; ++i)
        ref.run(log[i]);
    const CheckState want = captureCheck(ref, names, vm);
    if (want.digest != check.digest) {
        ++res.failed;
        res.notes.push_back("state at cycle " +
                            std::to_string(ref.cycle()) +
                            " differs from serial interp");
    }
    if (want.aluEvals != check.aluEvals) {
        res.notes.push_back(
            "SimStats.aluEvals at cycle " + std::to_string(ref.cycle()) +
            ": " + so.engine + " " + std::to_string(check.aluEvals) +
            ", serial interp " + std::to_string(want.aluEvals) +
            " (left out of the byte comparison)");
    }
    return res;
}

void
ledgerLarge(const RunConfig &cfg, LayerMetrics &layers)
{
    using namespace asim;
    const std::string text = generateSyntheticText(largeDesign(cfg.seed));

    Diagnostics diag;
    Span parse("lang.parse", "lang");
    const Spec spec = parseSpec(text, &diag);
    layers["lang.parse_s"] = parse.seconds();

    // With a Diagnostics sink, as Simulation passes one (runs the
    // declared-but-not-defined check), then without.
    Span withDiag("analysis.resolve", "analysis");
    // Results stay alive to the end: their destruction is not timed.
    [[maybe_unused]] const ResolvedSpec checked = resolve(spec, &diag);
    layers["analysis.resolve_s"] = withDiag.seconds();
    Span noDiag("analysis.resolve_nodiag", "analysis");
    auto rs = std::make_shared<const ResolvedSpec>(resolve(spec));
    layers["analysis.resolve_nodiag_s"] = noDiag.seconds();
    layers["analysis.checkdcl_s"] =
        layers["analysis.resolve_s"] - layers["analysis.resolve_nodiag_s"];

    Span build("sim.vm_build", "sim");
    auto program = std::make_shared<const Program>(
        compileProgram(*rs, CompilerOptions{}, false));
    layers["sim.vm_build_s"] = build.seconds();

    constexpr uint64_t kWarm = 4, kCycles = 48;
    auto nsPerCycle = [&](Simulation &sim, const char *span) {
        sim.run(kWarm);
        Span s(span, "sim");
        sim.run(kCycles);
        return double(s.stop()) / double(kCycles);
    };

    SimulationOptions so;
    so.resolved = rs;
    so.engine = "vm";
    so.program = program;
    Simulation vm(so);
    const double vmNs = nsPerCycle(vm, "sim.vm.run");
    layers["sim.vm.ns_per_cycle"] = vmNs;
    layers["sim.alu_evals_per_cycle"] =
        double(vm.stats().aluEvals) / double(vm.cycle());
    layers["sim.sel_evals_per_cycle"] =
        double(vm.stats().selEvals) / double(vm.cycle());

    so.program = nullptr;
    so.engine = "interp";
    Simulation interp(so);
    const double interpNs = nsPerCycle(interp, "sim.interp.run");
    layers["sim.interp.ns_per_cycle"] = interpNs;

    Span plan("partition.plan", "partition");
    [[maybe_unused]] const PartitionPlan p =
        buildPartitionPlan(*rs, 4, false);
    layers["partition.plan_s"] = plan.seconds();

    so.partitions = 4;
    Simulation lanes(so);
    lanes.run(kWarm);
    const auto before = metrics::Registry::global().snapshot();
    Span s("partition.run", "partition");
    lanes.run(kCycles);
    const double laneNs = double(s.stop()) / double(kCycles);
    const auto after = metrics::Registry::global().snapshot();
    layers["partition.ns_per_cycle"] = laneNs;
    layers["partition.speedup_vs_interp"] = interpNs / laneNs;
    layers["partition.speedup_vs_vm"] = vmNs / laneNs;
    auto delta = [&](const char *name) {
        auto a = after.histograms.find(name);
        auto b = before.histograms.find(name);
        if (a == after.histograms.end())
            return 0.0;
        const uint64_t base =
            b == before.histograms.end() ? 0 : b->second.sum;
        return double(a->second.sum - base);
    };
    const double comb = delta("partition.lane.comb_ns");
    if (comb > 0) {
        layers["partition.barrier_wait_share"] =
            delta("partition.barrier_wait_ns") / comb;
    }
}

std::string
dumpLargeInputs(uint64_t seed)
{
    std::ostringstream os;
    os << asim::generateSyntheticText(largeDesign(seed));
    ChunkStream chunks(seed);
    os << "# chunks:";
    for (int i = 0; i < 4000; ++i)
        os << ' ' << chunks.next();
    os << '\n';
    return os.str();
}

} // namespace bench
