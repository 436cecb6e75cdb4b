/** @file
 * NativeEngine in-process tests: runtime faults surface as SimError
 * with the vm's message and reset() recovers, scripted input rewinds
 * on reset and is positioned by restore, restore executes no cycles,
 * stepping costs one call per step rather than a replay, instances
 * sharing one loaded build keep fully separate state even when they
 * run concurrently, and every real compile is timed.
 *
 * Skipped without a host compiler.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "analysis/resolve.hh"
#include "machines/counter.hh"
#include "sim/native_engine.hh"
#include "sim/simulation.hh"
#include "support/metrics.hh"

#ifndef ASIM_SPECS_DIR
#define ASIM_SPECS_DIR "specs"
#endif

namespace asim {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** A machine that faults once its counter walks off a 10-cell
 *  memory (same shape as the batch suite's fault spec). */
const char *kFaultSpec = "# walks off the end of mem\n"
                         "count* next .\n"
                         "A next 4 count 1\n"
                         "M count 0 next 1 1\n"
                         "M mem count count 1 10\n"
                         ".\n";

const char *kEchoSpec = "# integer echo\n"
                        "= 4\n"
                        "in out .\n"
                        "M in 1 0 2 1\n"
                        "M out 1 in 3 1\n"
                        ".\n";

/** An engine over a fresh build of its own, compiled to match
 *  `cfg` (trace output only with a sink, the same ALU semantics). */
std::unique_ptr<NativeEngine>
nativeEngine(const ResolvedSpec &spec, const EngineConfig &cfg = {})
{
    auto rs = std::make_shared<const ResolvedSpec>(spec);
    CodegenOptions cg;
    cg.aluSemantics = cfg.aluSemantics;
    cg.emitTrace = cfg.trace != nullptr;
    cg.emitServeLoop = true;
    return std::make_unique<NativeEngine>(rs, cfg,
                                          compileSpecShared(*rs, cg));
}

class NativeEngineTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!NativeEngine::available())
            GTEST_SKIP() << "no host compiler";
    }

    static std::unique_ptr<NativeEngine>
    counterEngine()
    {
        return nativeEngine(resolveText(counterSpec(4, 100)));
    }
};

/** The fault message and cycle an engine reports within its next
 *  `cycles` cycles (an empty message when it runs them all). */
std::pair<std::string, uint64_t>
faultOf(Engine &e, uint64_t cycles)
{
    try {
        e.run(cycles);
    } catch (const SimError &err) {
        return {err.what(), e.cycle()};
    }
    return {"", e.cycle()};
}

TEST_F(NativeEngineTest, RuntimeFaultThrowsAndResetRecovers)
{
    // A memory address, a selector index, and a dynamic ALU function
    // out of range: the same message at the same cycle as the vm.
    const char *specs[] = {
        kFaultSpec,
        "# badsel\n"
        "inc count pick .\n"
        "A inc 4 count 1\n"
        "M count 0 inc 1 1\n"
        "S pick count 10 20\n"
        ".\n",
        "# dynbad\n"
        "inc count r .\n"
        "A inc 4 count 1\n"
        "M count 0 inc 1 1\n"
        "A r count.0.4 1 1\n"
        ".\n",
    };
    for (const char *spec : specs) {
        ResolvedSpec rs = resolveText(spec);
        auto vm = makeVm(rs);
        const auto want = faultOf(*vm, 50);
        ASSERT_FALSE(want.first.empty()) << spec;

        auto ep = nativeEngine(rs, EngineConfig{});
        NativeEngine &e = *ep;
        e.run(1);
        EXPECT_EQ(faultOf(e, 49), want) << spec;
        EXPECT_EQ(e.stats().cycles, want.second);
        e.reset();
        e.run(1);
        EXPECT_EQ(e.cycle(), 1u);
        EXPECT_EQ(e.value("count"), 1) << "reset recovers";
    }
}

TEST_F(NativeEngineTest, ScriptedInputRewindsOnReset)
{
    std::ostringstream os;
    ScriptIo io({10, 20, 30, 40, 50}, os);
    EngineConfig cfg;
    cfg.io = &io;
    auto ep = nativeEngine(resolveText(kEchoSpec), cfg);
    NativeEngine &e = *ep;
    e.run(5);
    EXPECT_EQ(os.str(), "10\n20\n30\n40\n50\n");
    os.str("");
    e.reset();
    e.run(2);
    EXPECT_EQ(os.str(), "10\n20\n") << "reset rewinds the script";
}

/** Restore is a state copy, asserted in cycle space so it can never
 *  be wall-clock flaky: restoring a snapshot taken at cycle N runs
 *  no cycles (stats().cycles is adopted, not advanced). */
TEST_F(NativeEngineTest, RestoreExecutesNoCycles)
{
    auto ap = counterEngine();
    NativeEngine &a = *ap;
    a.run(1000);
    EngineSnapshot snap = a.snapshot();
    EXPECT_EQ(snap.stats.cycles, 1000u);
    EXPECT_EQ(snap.ioBytes, kNoIoCursor);

    auto bp = counterEngine();
    NativeEngine &b = *bp;
    b.run(3);
    EngineSnapshot early = b.snapshot();
    b.restore(snap);
    EXPECT_EQ(b.stats().cycles, 1000u)
        << "restore() executed cycles instead of copying state";
    EXPECT_EQ(b.cycle(), 1000u);
    EXPECT_EQ(b.value("count"), a.value("count"));

    // The continuation matches the uninterrupted engine.
    a.run(7);
    b.run(7);
    EXPECT_EQ(b.stats().cycles, 1007u);
    EXPECT_EQ(b.value("count"), a.value("count"));
    EXPECT_TRUE(b.state() == a.state());

    // And back to an earlier point.
    b.restore(early);
    EXPECT_EQ(b.stats().cycles, 3u);
    EXPECT_EQ(b.value("count"), 3);
}

TEST_F(NativeEngineTest, RestorePositionsTheInputCursor)
{
    ResolvedSpec rs = resolveText(kEchoSpec);
    std::ostringstream osA, osB;
    ScriptIo ioA({1, 2, 3, 4, 5}, osA);
    EngineConfig cfgA;
    cfgA.io = &ioA;
    auto ap = nativeEngine(rs, cfgA);
    NativeEngine &a = *ap;
    a.run(3);
    EngineSnapshot snap = a.snapshot();
    EXPECT_EQ(snap.ioValues, 3u);

    // A different-script engine adopts the state and the cursor: the
    // continuation reads its own script from position 3.
    ScriptIo ioB({9, 8, 7, 6, 5}, osB);
    EngineConfig cfgB;
    cfgB.io = &ioB;
    auto bp = nativeEngine(rs, cfgB);
    NativeEngine &b = *bp;
    b.restore(snap);
    EXPECT_EQ(b.cycle(), 3u);
    EXPECT_TRUE(b.state() == snap.state);
    b.run(2);
    EXPECT_EQ(osB.str(), "6\n5\n");
}

/** An exception thrown by a host callback unwinds through the
 *  generated code (built as C++ with exceptions) to the caller; the
 *  cycle counter stays at the cycle in progress and reset()
 *  recovers. */
TEST_F(NativeEngineTest, CallbackExceptionsReachTheCaller)
{
    struct FailingIo : VectorIo
    {
        int32_t
        input(int32_t address) override
        {
            if (inputsConsumed() == 2)
                throw std::runtime_error("device unplugged");
            return VectorIo::input(address);
        }
    } io;
    for (int32_t v : {1, 2, 3, 4})
        io.pushInput(v);
    EngineConfig cfg;
    cfg.io = &io;
    auto ep = nativeEngine(resolveText(kEchoSpec), cfg);
    NativeEngine &e = *ep;
    EXPECT_THROW(e.run(4), std::runtime_error);
    EXPECT_EQ(e.cycle(), 2u);
    EXPECT_EQ(e.stats().cycles, 2u);
    EXPECT_EQ(io.outputsAt(1), (std::vector<int32_t>{1, 2}));
    e.reset();
    EXPECT_THROW(e.run(4), std::runtime_error)
        << "reset rewinds the device to the same failure";
    EXPECT_EQ(e.cycle(), 2u);
}

TEST_F(NativeEngineTest, EditedStateReachesTheMachine)
{
    auto ep = counterEngine();
    NativeEngine &e = *ep;
    e.run(2);
    e.state().mems[0].temp = 9; // count's output latch
    e.run(1);
    EXPECT_EQ(e.value("count"), 10);
}

/** Stepping N cycles costs N calls, not a replay per step. The bound
 *  is 3x a single run(1000) plus an absolute floor absorbing per-call
 *  overhead on slow, loaded CI hosts. */
TEST_F(NativeEngineTest, SteppingIsIncrementalNotQuadratic)
{
    SimulationOptions opts;
    opts.specFile = std::string(ASIM_SPECS_DIR) + "/gcd.asim";
    opts.engine = "native";

    Simulation whole(opts);
    auto t0 = Clock::now();
    whole.run(1000);
    double runOnce = secondsSince(t0);

    Simulation stepped(opts);
    t0 = Clock::now();
    for (int i = 0; i < 1000; ++i)
        stepped.step();
    double stepAll = secondsSince(t0);

    EXPECT_EQ(stepped.cycle(), whole.cycle());
    EXPECT_TRUE(stepped.engine().state() == whole.engine().state());
    EXPECT_LT(stepAll, 3.0 * runOnce + 0.05)
        << "1000x step() took " << stepAll << "s vs run(1000) "
        << runOnce << "s";
}

/** The default route to a build (the build cache, no workDir) times
 *  each real compile in native.compile_ns; a cache hit records
 *  nothing. */
TEST_F(NativeEngineTest, DefaultBuildRecordsCompileTime)
{
    auto compiles = [] {
        auto snap = metrics::Registry::global().snapshot();
        auto it = snap.histograms.find("native.compile_ns");
        return it == snap.histograms.end() ? uint64_t{0}
                                           : it->second.count;
    };
    metrics::setTimingEnabled(true);
    const uint64_t before = compiles();
    SimulationOptions opts;
    opts.specText = counterSpec(13, 77);
    opts.engine = "native";
    Simulation first(opts);
    EXPECT_EQ(compiles(), before + 1);
    Simulation cached(opts);
    EXPECT_EQ(&dynamic_cast<NativeEngine &>(cached.engine()).build(),
              &dynamic_cast<NativeEngine &>(first.engine()).build());
    EXPECT_EQ(compiles(), before + 1);
    metrics::setTimingEnabled(false);
}

/** Two instances of one shared build, run interleaved on two threads,
 *  end exactly where serial runs do: the generated code keeps no
 *  mutable state outside each instance's machine. */
TEST_F(NativeEngineTest, ConcurrentInstancesOfOneBuildMatchSerialRuns)
{
    // A 16-bit counter: the two run lengths end in different states,
    // so a machine that leaked into its sibling would show.
    auto rs = std::make_shared<const ResolvedSpec>(
        resolveText(counterSpec(16, 100000)));
    CodegenOptions cg;
    cg.emitTrace = false;
    cg.emitServeLoop = true;
    auto build = compileSpecShared(*rs, cg);

    const uint64_t cycles[2] = {3000, 4500};
    MachineState serial[2];
    for (int i = 0; i < 2; ++i) {
        NativeEngine e(rs, EngineConfig{}, build);
        e.run(cycles[i]);
        serial[i] = e.state();
    }

    NativeEngine a(rs, EngineConfig{}, build);
    NativeEngine b(rs, EngineConfig{}, build);
    ASSERT_EQ(&a.build(), &b.build());
    auto drive = [](NativeEngine *e, uint64_t total) {
        for (uint64_t done = 0; done < total; done += 3)
            e->run(3);
    };
    std::thread ta(drive, &a, cycles[0]);
    std::thread tb(drive, &b, cycles[1]);
    ta.join();
    tb.join();
    EXPECT_EQ(a.cycle(), cycles[0]);
    EXPECT_EQ(b.cycle(), cycles[1]);
    EXPECT_TRUE(a.state() == serial[0]);
    EXPECT_TRUE(b.state() == serial[1]);
    EXPECT_FALSE(serial[0] == serial[1]);
}

} // namespace
} // namespace asim
