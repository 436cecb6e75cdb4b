/**
 * @file
 * Observability overhead guard: the same counter-machine workload on
 * the vm and interp engines with instrumentation fully off (the
 * default), with timing metrics on, and with a live trace file. The
 * off-path contract (support/metrics.hh) is that disabled
 * instrumentation costs one relaxed atomic load per site, so
 * BM_TracingOff must track the plain bench_engines rates and CI
 * asserts BM_TracingOff stays within tolerance of the committed
 * baseline (tools/bench_tolerances.json pins this bench's slack).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "sim/simulation.hh"
#include "support/metrics.hh"
#include "support/tracing.hh"

namespace {

using namespace asim;

using SharedSpec = std::shared_ptr<const ResolvedSpec>;

const SharedSpec &
counterMachine()
{
    static const SharedSpec spec =
        std::make_shared<const ResolvedSpec>(
            resolveText(counterSpec(8, 1000)));
    return spec;
}

void
runCounter(benchmark::State &state, const char *engine)
{
    SimulationOptions opts;
    opts.resolved = counterMachine();
    opts.engine = engine;
    Simulation sim(opts);

    const uint64_t chunk = 1024;
    for (auto _ : state) {
        sim.run(chunk);
        if (sim.cycle() > (1u << 24))
            sim.reset();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * chunk));
    state.SetLabel(engine);
}

/** Baseline: instrumentation compiled in, everything disabled. */
void
BM_TracingOff(benchmark::State &state)
{
    tracing::stop();
    metrics::setTimingEnabled(false);
    runCounter(state, state.range(0) == 0 ? "vm" : "interp");
}

/** Timing metrics on (the serve daemon's standing mode), no trace
 *  file: clock reads at engine boundaries, histograms populate. */
void
BM_TimingOn(benchmark::State &state)
{
    tracing::stop();
    metrics::setTimingEnabled(true);
    runCounter(state, state.range(0) == 0 ? "vm" : "interp");
    metrics::setTimingEnabled(false);
}

/** Full tracing to a file (what --trace-out costs). */
void
BM_TracingOn(benchmark::State &state)
{
    const std::string path = "/tmp/asim_bench_obs_trace.json";
    if (!tracing::start(path)) {
        state.SkipWithError("cannot open trace file");
        return;
    }
    runCounter(state, state.range(0) == 0 ? "vm" : "interp");
    tracing::stop();
    metrics::setTimingEnabled(false);
    std::remove(path.c_str());
}

BENCHMARK(BM_TracingOff)->Arg(0)->Arg(1);
BENCHMARK(BM_TimingOn)->Arg(0)->Arg(1);
BENCHMARK(BM_TracingOn)->Arg(0)->Arg(1);

} // namespace
