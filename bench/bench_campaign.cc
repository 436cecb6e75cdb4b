/**
 * @file
 * Fault-injection campaign throughput (analysis/campaign.hh):
 * injections/second for a fixed fleet of sampled transient upsets as
 * the worker-thread count grows, and the golden-checkpoint
 * amortization — the later the checkpoint, the shorter every
 * instance's re-executed suffix, so moving the golden cycle toward
 * the horizon must raise the injection rate. Each iteration is one
 * whole campaign: golden run, checkpoint, fan-out, classification.
 *
 * Run with --benchmark_format=json to get artifact-comparable output.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "analysis/campaign.hh"
#include "machines/counter.hh"

namespace {

using namespace asim;

constexpr uint64_t kRuns = 64;
constexpr int64_t kHorizon = 20000;

CampaignOptions
campaign(unsigned threads, uint64_t goldenCycle)
{
    CampaignOptions o;
    o.base.specText = counterSpec(8, kHorizon);
    o.runs = kRuns;
    o.seed = 42;
    o.goldenCycle = goldenCycle;
    o.threads = threads;
    return o;
}

void
BM_CampaignFanout(benchmark::State &state)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));
    CampaignOptions opts = campaign(threads, 0);
    for (auto _ : state) {
        CampaignResult result = CampaignRunner(opts).run();
        benchmark::DoNotOptimize(result.total.injections);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kRuns));
    state.SetLabel("x" + std::to_string(kRuns) + " @" +
                   std::to_string(threads) + "t");
}

void
BM_CampaignGoldenAmortization(benchmark::State &state)
{
    // Golden cycle as a fraction of the horizon: 1/8, 1/2, 7/8. The
    // checkpoint amortizes the healthy prefix across every instance.
    const uint64_t golden = static_cast<uint64_t>(
        kHorizon * state.range(0) / 8);
    CampaignOptions opts = campaign(2, golden ? golden : 1);
    for (auto _ : state) {
        CampaignResult result = CampaignRunner(opts).run();
        benchmark::DoNotOptimize(result.total.injections);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kRuns));
    state.SetLabel("golden@" + std::to_string(opts.goldenCycle) +
                   "/" + std::to_string(kHorizon));
}

/** items/sec is the injection rate (one item = one classified run). */
BENCHMARK(BM_CampaignFanout)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_CampaignGoldenAmortization)
    ->Arg(1)
    ->Arg(4)
    ->Arg(7)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

} // namespace
