/**
 * @file
 * Batch throughput: aggregate cycles/second for a fixed fleet of
 * independent instances as the worker-thread count grows, for the
 * interpreter and the bytecode VM. All batches are constructed
 * through BatchRunner (one shared resolve, one shared vm program).
 * Emits the same Google-Benchmark JSON shape as bench_engines
 * (items_per_second = aggregate cycles/second); the acceptance bar
 * for the subsystem is >= 2x aggregate throughput at 4 threads vs 1
 * on a >= 4-core host (vm engine, Release).
 *
 * Run with --benchmark_format=json to get artifact-comparable output.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "machines/stack_machine.hh"
#include "sim/batch.hh"

namespace {

using namespace asim;

using SharedSpec = std::shared_ptr<const ResolvedSpec>;

constexpr size_t kBatchSize = 8;
constexpr uint64_t kCyclesPerInstance = 4096;

const SharedSpec &
machine(int which)
{
    static const SharedSpec counter =
        std::make_shared<const ResolvedSpec>(
            resolveText(counterSpec(8, 1000)));
    static const SharedSpec stack =
        std::make_shared<const ResolvedSpec>(resolveText(
            stackMachineSpec(sieveProgram(kBenchSieveSize), 100000)));
    return which == 0 ? counter : stack;
}

void
runBatch(benchmark::State &state, const char *engine)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));

    BatchJob job;
    job.options.resolved = machine(static_cast<int>(state.range(1)));
    job.options.engine = engine;
    job.cycles = kCyclesPerInstance;

    BatchOptions bopts;
    bopts.threads = threads;
    bopts.captureState = false;
    BatchRunner runner(bopts);
    runner.addBatch(job, kBatchSize);

    for (auto _ : state) {
        BatchResult result = runner.run();
        benchmark::DoNotOptimize(result.aggregate.cycles);
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * kBatchSize * kCyclesPerInstance));
    state.SetLabel(std::string(state.range(1) == 0
                                   ? "counter"
                                   : "stack_machine") +
                   " x" + std::to_string(kBatchSize) + " @" +
                   std::to_string(threads) + "t");
}

void
BM_BatchInterp(benchmark::State &state)
{
    runBatch(state, "interp");
}

void
BM_BatchVm(benchmark::State &state)
{
    runBatch(state, "vm");
}

/** threads x machine; items/sec is the aggregate cycle rate. */
BENCHMARK(BM_BatchInterp)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_BatchVm)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

} // namespace
