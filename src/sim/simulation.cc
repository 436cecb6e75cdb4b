#include "sim/simulation.hh"

#include <algorithm>
#include <fstream>
#include <iostream>

#include "analysis/campaign.hh"
#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "sim/checkpoint.hh"
#include "sim/compiler.hh"
#include "sim/io.hh"
#include "sim/native_engine.hh"
#include "sim/partition.hh"
#include "sim/symbolic.hh"
#include "sim/trace.hh"
#include "support/metrics.hh"
#include "support/text.hh"
#include "support/tracing.hh"

namespace asim {

// SimulationOptions repeats the threshold as a literal default (256)
// to keep this header out of simulation.hh; catch drift here.
static_assert(kPartitionAutoThreshold == 256);

namespace {

constexpr EngineInfo kEngines[] = {
    {"interp", "slot-resolved table interpreter (ASIM analog); "
               "--partitions=N runs one design bulk-synchronously "
               "across N lanes"},
    {"native", "generated C++ through the host compiler, loaded in "
               "process as a shared object (ASIM II pipeline)"},
    {"symbolic", "name-lookup symbolic interpreter (faithful ASIM "
                 "baseline)"},
    {"vm", "compiled bytecode VM (portable ASIM II analog)"},
};

/** The one route to a native engine build: the codegen options follow
 *  from `opts`, and the build comes from the process-wide build cache,
 *  or from `opts.workDir` when one is pinned. Each real compile is
 *  timed inside compileSpec (native.compile, native.compile_ns), so a
 *  cache hit records nothing. */
std::shared_ptr<const NativeBuild>
buildNative(const ResolvedSpec &rs, const SimulationOptions &opts,
            bool tracingPossible)
{
    CodegenOptions cg;
    cg.inlineConstAlu = opts.compiler.inlineConstAlu;
    cg.specializeConstMem = opts.compiler.specializeConstMem;
    cg.aluSemantics = opts.config.aluSemantics;
    cg.emitTrace = tracingPossible;
    cg.emitServeLoop = true;
    if (!opts.workDir.empty())
        return compileSpecShared(rs, cg, opts.workDir);
    return compileSpecCached(rs, cg, specIdentityHash(rs));
}

int
sourceCount(const SimulationOptions &opts)
{
    return (opts.specFile.empty() ? 0 : 1) +
           (opts.specText.empty() ? 0 : 1) + (opts.resolved ? 1 : 0);
}

} // namespace

std::span<const EngineInfo>
listEngines()
{
    return kEngines;
}

void
requireEngine(const std::string &name)
{
    std::string known;
    for (const EngineInfo &e : kEngines) {
        if (name == e.name)
            return;
        known += std::string(known.empty() ? "" : ", ") + e.name;
    }
    throw SimError("unknown engine <" + name +
                   ">; registered engines: " + known);
}

ResolvedSpec
Simulation::loadSpec(const SimulationOptions &opts, Diagnostics *diag)
{
    if (sourceCount(opts) != 1) {
        throw SimError("exactly one of specFile, specText, or "
                       "resolved must be set");
    }

    // A splice fault changes the specification itself: parse the
    // healthy spec, splice, and resolve the result. @cycle faults
    // leave the spec untouched (validated against the resolve).
    if (!opts.fault.empty()) {
        FaultSite site = parseFaultSite(opts.fault);
        if (!site.atCycle) {
            const FaultPolicy &policy = faultPolicy(site.mode);
            Spec spec = opts.resolved
                            ? opts.resolved->spec
                            : (!opts.specFile.empty()
                                   ? parseSpecFile(opts.specFile, diag)
                                   : parseSpec(opts.specText, diag));
            return resolve(
                spliceFault(policy, spec, site.component, site.bit),
                diag);
        }
        ResolvedSpec rs =
            opts.resolved
                ? *opts.resolved
                : (!opts.specFile.empty()
                       ? resolve(parseSpecFile(opts.specFile, diag),
                                 diag)
                       : resolveText(opts.specText, diag));
        validateFaultSite(rs, site);
        return rs;
    }

    if (opts.resolved)
        return *opts.resolved;
    if (!opts.specFile.empty())
        return resolve(parseSpecFile(opts.specFile, diag), diag);
    return resolveText(opts.specText, diag);
}

std::vector<int32_t>
Simulation::loadScript(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw SimError("cannot read script file " + path);
    std::vector<int32_t> values;
    std::string token;
    while (in >> token) {
        if (token[0] == '#') {
            std::string rest;
            std::getline(in, rest);
            continue;
        }
        auto v = parseInteger(token, INT64_MIN, INT64_MAX, 0);
        if (!v) {
            throw SimError("script file " + path +
                           ": not an integer: " + token);
        }
        if (*v < INT32_MIN || *v > INT32_MAX) {
            throw SimError("script file " + path +
                           ": value out of 32-bit range: " + token);
        }
        values.push_back(static_cast<int32_t>(*v));
    }
    return values;
}

Simulation::Simulation(const SimulationOptions &opts)
    : engineName_(opts.engine)
{
    if (sourceCount(opts) != 1) {
        throw SimError("exactly one of specFile, specText, or "
                       "resolved must be set");
    }
    bool spliceFault = false;
    if (!opts.fault.empty()) {
        fault_ = parseFaultSite(opts.fault);
        hasFault_ = fault_.atCycle;
        spliceFault = !fault_.atCycle;
    }
    if (opts.resolved && !spliceFault) {
        rs_ = opts.resolved;
    } else {
        // A splice fault re-resolves even off a shared resolve: the
        // shared spec stays healthy, this instance gets the spliced
        // one (loadSpec).
        tracing::Span span("sim.parse_resolve", "lifecycle");
        rs_ = std::make_shared<const ResolvedSpec>(
            loadSpec(opts, &diag_));
        if (span.live()) {
            span.setArgs("\"components\":" +
                         std::to_string(rs_->comb.size()));
        }
    }
    if (hasFault_) {
        validateFaultSite(*rs_, fault_);
        faultArmed_ = true;
    }

    requireEngine(engineName_);
    if (opts.partitions >= 2 && engineName_ != "interp") {
        throw SimError("engine <" + engineName_ +
                       "> does not support partitioned execution; "
                       "partitions require the interp engine");
    }
    if (opts.partitions > kPartitionMaxLanes) {
        throw SimError("partitions " + std::to_string(opts.partitions) +
                       " exceeds the limit of " +
                       std::to_string(kPartitionMaxLanes) + " lanes");
    }

    EngineConfig cfg = opts.config;
    std::ostream *out = opts.ioOut ? opts.ioOut : &std::cout;
    if (!cfg.io) {
        switch (opts.ioMode) {
          case IoMode::Null:
            break;
          case IoMode::Interactive: {
            std::istream *in = opts.ioIn ? opts.ioIn : &std::cin;
            ownedIo_ = std::make_unique<StreamIo>(*in, *out);
            break;
          }
          case IoMode::Script:
            ownedIo_ =
                std::make_unique<ScriptIo>(opts.scriptInputs, *out);
            break;
        }
        cfg.io = ownedIo_.get();
    }
    if (!cfg.trace && opts.traceStream) {
        ownedTrace_ = std::make_unique<StreamTrace>(*opts.traceStream);
        cfg.trace = ownedTrace_.get();
    }

    {
        // Covers engine-local compilation: bytecode for the vm,
        // generate+host-compile for native (unless shared artifacts
        // were prebuilt), partition planning for lanes >= 2.
        tracing::Span span("sim.build_engine", "lifecycle");
        if (span.live())
            span.setArgs("\"engine\":\"" + engineName_ + "\"");
        // A splice fault re-resolved the spec above, so shared
        // artifacts compiled from the healthy spec no longer match.
        if (engineName_ == "interp") {
            if (opts.partitions >= 2 &&
                rs_->comb.size() >= opts.partitionMinComponents) {
                engine_ = makePartitionedInterpreter(rs_, cfg,
                                                     opts.partitions);
            } else {
                engine_ = makeInterpreter(rs_, cfg);
            }
        } else if (engineName_ == "symbolic") {
            engine_ = makeSymbolicInterpreter(rs_, cfg);
        } else if (engineName_ == "vm") {
            engine_ = opts.program && !spliceFault
                          ? makeVm(rs_, cfg, opts.program)
                          : makeVm(rs_, cfg, opts.compiler);
        } else {
            engine_ = std::make_unique<NativeEngine>(
                rs_, cfg,
                opts.nativeBuild && !spliceFault
                    ? opts.nativeBuild
                    : buildNative(*rs_, opts, cfg.trace != nullptr));
        }
    }
    metrics::counter("sim.engines_built." + engineName_).add();
}

SimulationOptions
Simulation::shareBatchArtifacts(const SimulationOptions &opts,
                                bool forceTracingPossible)
{
    SimulationOptions shared = opts;
    const bool spliceFault =
        !shared.fault.empty() &&
        !parseFaultSite(shared.fault).atCycle;
    if (spliceFault) {
        // Bake the splice into the shared resolve once (loadSpec
        // applies it) so every instance shares the spliced spec and
        // artifacts instead of re-splicing per instance.
        shared.resolved =
            std::make_shared<const ResolvedSpec>(loadSpec(opts));
        shared.specFile.clear();
        shared.specText.clear();
        shared.fault.clear();
    } else if (!shared.resolved) {
        shared.resolved =
            std::make_shared<const ResolvedSpec>(loadSpec(opts));
        shared.specFile.clear();
        shared.specText.clear();
    }
    // Compile the expensive per-engine artifact once; every instance
    // shares it immutably. Trace checks / trace output are kept
    // whenever any trace wiring exists (or the caller promises to
    // attach a sink later), so shared artifacts behave identically
    // to per-instance compiles.
    const bool tracingPossible = forceTracingPossible ||
                                 shared.config.trace != nullptr ||
                                 shared.traceStream != nullptr;
    if (shared.engine == "vm" && !shared.program) {
        tracing::Span span("sim.compile.vm", "lifecycle");
        shared.program = std::make_shared<const Program>(
            compileProgram(*shared.resolved, shared.compiler,
                           tracingPossible));
    }
    if (shared.engine == "native" && !shared.nativeBuild) {
        // One engine build for the whole batch; each instance creates
        // its own machine off it.
        tracing::Span span("sim.compile.native", "lifecycle");
        shared.nativeBuild =
            buildNative(*shared.resolved, shared, tracingPossible);
    }
    return shared;
}

std::vector<std::unique_ptr<Simulation>>
Simulation::makeBatch(const SimulationOptions &opts, size_t count)
{
    SimulationOptions shared = shareBatchArtifacts(opts);
    std::vector<std::unique_ptr<Simulation>> sims;
    sims.reserve(count);
    for (size_t i = 0; i < count; ++i)
        sims.push_back(std::make_unique<Simulation>(shared));
    return sims;
}

uint64_t
Simulation::specHash() const
{
    if (specHash_ == 0)
        specHash_ = specIdentityHash(*rs_);
    return specHash_;
}

void
Simulation::saveCheckpoint(const std::string &path) const
{
    asim::saveCheckpoint(*engine_, path, engineName_);
}

void
Simulation::restoreCheckpoint(const std::string &path)
{
    restore(loadCheckpoint(path, *rs_));
}

// ---------------------------------------------------------------------
// Run control + @cycle fault injection
// ---------------------------------------------------------------------

void
Simulation::reset()
{
    engine_->reset();
    faultArmed_ = hasFault_;
}

void
Simulation::step()
{
    injectPending();
    engine_->step();
}

void
Simulation::run(uint64_t cycles)
{
    tracing::Span span("sim.run", "lifecycle");
    if (span.live()) {
        span.setArgs("\"engine\":\"" + engineName_ +
                     "\",\"cycles\":" + std::to_string(cycles));
    }
    const bool timed = metrics::timingEnabled();
    const uint64_t t0 = timed ? metrics::nowNs() : 0;
    const uint64_t startCycle = timed ? engine_->cycle() : 0;
    const uint64_t startAlu = timed ? engine_->stats().aluEvals : 0;
    const uint64_t startSel = timed ? engine_->stats().selEvals : 0;

    while (cycles > 0) {
        injectPending();
        uint64_t chunk = cycles;
        // Stop the engine chunk at the fault boundary so the
        // injection lands mid-run exactly where step()-ing would put
        // it.
        if (faultArmed_ && fault_.cycle > engine_->cycle())
            chunk = std::min(chunk, fault_.cycle - engine_->cycle());
        engine_->run(chunk);
        cycles -= chunk;
    }

    if (timed) {
        // Per-engine throughput and sampled hot-loop work counters:
        // the engines accumulate SimStats in locals and flush at run
        // exit, so the deltas here are one subtraction, not a
        // per-cycle tax.
        if (!runNsMetric_) {
            cyclesMetric_ = &metrics::counter("engine.cycles." +
                                              engineName_);
            aluEvalsMetric_ = &metrics::counter("engine.alu_evals." +
                                                engineName_);
            selEvalsMetric_ = &metrics::counter("engine.sel_evals." +
                                                engineName_);
            runNsMetric_ = &metrics::histogram(
                "engine.run_ns." + engineName_,
                metrics::Histogram::exponentialBounds(1000, 4.0, 16));
        }
        const SimStats &end = engine_->stats();
        cyclesMetric_->add(engine_->cycle() - startCycle);
        aluEvalsMetric_->add(end.aluEvals - startAlu);
        selEvalsMetric_->add(end.selEvals - startSel);
        runNsMetric_->record(metrics::nowNs() - t0);
    }
}

void
Simulation::restore(const EngineSnapshot &snap)
{
    engine_->restore(snap);
    // Restoring before the fault boundary re-arms the injection
    // (continuation replays it); restoring past it means the fault
    // already lives in the restored history.
    if (hasFault_)
        faultArmed_ = snap.cycle <= fault_.cycle;
}

void
Simulation::injectPending()
{
    if (!faultArmed_ || engine_->cycle() < fault_.cycle)
        return;
    EngineSnapshot snap = engine_->snapshot();
    applyFaultToSnapshot(snap, *rs_, fault_);
    engine_->restore(snap);
    faultArmed_ = false;
}

int64_t
Simulation::defaultCycles() const
{
    return rs_->spec.cyclesSpecified ? rs_->spec.thesisIterations()
                                     : -1;
}

uint64_t
Simulation::runUntil(const Predicate &pred, uint64_t maxCycles)
{
    for (uint64_t n = 0; n < maxCycles;) {
        step();
        ++n;
        if (pred(*this))
            return n;
    }
    return maxCycles;
}

uint64_t
Simulation::runUntilValue(std::string_view name, int32_t value,
                          uint64_t maxCycles)
{
    std::string comp(name);
    return runUntil(
        [&](const Simulation &sim) {
            return sim.value(comp) == value;
        },
        maxCycles);
}

} // namespace asim
