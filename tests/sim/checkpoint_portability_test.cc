/** @file
 * Cross-engine checkpoint portability: a checkpoint saved mid-run by
 * any engine restores under every other engine, and the
 * continuation's output (trace + scripted I/O on one stream) is
 * byte-identical to an uninterrupted run — the acceptance property
 * of the checkpoint subsystem, extending the equivalence harness
 * across process death.
 *
 * The native engine joins the matrix when a host compiler exists
 * (same gating as the equivalence leg), and its checkpoints equal
 * the vm's byte for byte up to the statistics it does not collect.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <tuple>
#include <vector>

#include "machines/counter.hh"
#include "sim/checkpoint.hh"
#include "sim/native_engine.hh"
#include "sim/simulation.hh"

namespace asim {
namespace {

/** Trace plus scripted integer I/O, so both continuation channels
 *  are exercised: a starred counter gating an echo through memory-
 *  mapped I/O. */
const char *kTracedEchoSpec = "# traced echo\n"
                              "= 11\n"
                              "count* in out .\n"
                              "A next 4 count 1\n"
                              "M count 0 next 1 1\n"
                              "M in 1 0 2 1\n"
                              "M out 1 in 3 1\n"
                              ".\n";

std::vector<std::string>
portableEngines()
{
    std::vector<std::string> engines{"interp", "vm", "symbolic"};
    if (NativeEngine::available())
        engines.push_back("native");
    return engines;
}

SimulationOptions
echoOptions(const std::shared_ptr<const ResolvedSpec> &rs,
            const std::string &engine, std::ostream &out)
{
    SimulationOptions opts;
    opts.resolved = rs;
    opts.engine = engine;
    opts.ioMode = IoMode::Script;
    opts.scriptInputs = {10, 20, 30, 40, 50, 60,
                         70, 80, 90, 100, 110, 120};
    opts.ioOut = &out;
    opts.traceStream = &out;
    return opts;
}

class CheckpointPortability
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
  protected:
    void
    SetUp() override
    {
        const auto &[saver, restorer] = GetParam();
        auto engines = portableEngines();
        auto has = [&](const std::string &e) {
            return std::find(engines.begin(), engines.end(), e) !=
                   engines.end();
        };
        if (!has(saver) || !has(restorer))
            GTEST_SKIP() << "no host compiler";
    }
};

TEST_P(CheckpointPortability, MidRunSaveRestoresByteIdentically)
{
    const auto &[saver, restorer] = GetParam();
    auto rs = std::make_shared<const ResolvedSpec>(
        resolveText(kTracedEchoSpec));
    const uint64_t kTotal = 12, kHalf = 5;
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("asim_port_" + saver + "_" + restorer + ".ckpt"))
            .string();

    // Reference: the saver engine, uninterrupted.
    std::ostringstream refOut;
    Simulation ref(echoOptions(rs, saver, refOut));
    ref.run(kTotal);

    // Save mid-run under the saver...
    std::ostringstream headOut;
    Simulation head(echoOptions(rs, saver, headOut));
    head.run(kHalf);
    head.saveCheckpoint(path);
    EXPECT_EQ(peekCheckpoint(path).savedBy, saver);

    // ...restore under the restorer and finish the run.
    std::ostringstream tailOut;
    Simulation tail(echoOptions(rs, restorer, tailOut));
    tail.restoreCheckpoint(path);
    EXPECT_EQ(tail.cycle(), kHalf);
    tail.run(kTotal - kHalf);

    // The equivalence property across the checkpoint boundary:
    // prefix (saver) + continuation (restorer) is byte-identical to
    // the uninterrupted run, and the final states agree.
    EXPECT_EQ(headOut.str() + tailOut.str(), refOut.str())
        << "continuation diverged: " << saver << " -> " << restorer;
    EXPECT_TRUE(tail.engine().state() == ref.engine().state());
    EXPECT_EQ(tail.cycle(), ref.cycle());
    EXPECT_EQ(tail.value("count"), ref.value("count"));
    std::remove(path.c_str());
}

/** Checkpoint bytes with the memory access counters zeroed: the
 *  native engine does not collect them. Machine state, cycle, ALU
 *  and selector counts, input cursor and everything else stay as the
 *  engine wrote them. */
std::string
normalizedBytes(const Simulation &sim)
{
    EngineSnapshot snap = sim.snapshot();
    for (MemStats &m : snap.stats.mems)
        m.reads = m.writes = m.inputs = m.outputs = 0;
    return encodeCheckpoint(snap, sim.specHash(), "engine");
}

/** Native and vm checkpoints of the same run are the same bytes, and
 *  a checkpoint taken mid-script restores in either direction with
 *  the continuation (output, state, checkpoint) unchanged. */
TEST(NativeCheckpoint, BytesEqualVmAcrossMidScriptRestores)
{
    if (!NativeEngine::available())
        GTEST_SKIP() << "no host compiler";
    auto rs = std::make_shared<const ResolvedSpec>(
        resolveText(kTracedEchoSpec));
    const uint64_t kTotal = 12, kHalf = 5;

    std::ostringstream vmHead, nativeHead;
    Simulation vm(echoOptions(rs, "vm", vmHead));
    Simulation native(echoOptions(rs, "native", nativeHead));
    vm.run(kHalf);
    native.run(kHalf);
    EXPECT_EQ(native.snapshot().ioValues, kHalf);
    EXPECT_EQ(normalizedBytes(native), normalizedBytes(vm));

    // vm -> native and native -> vm, restored mid-script through the
    // checkpoint format.
    auto viaCheckpoint = [](const Simulation &from) {
        return decodeCheckpoint(
            encodeCheckpoint(from.snapshot(), from.specHash(),
                             from.engineName()),
            "in-memory checkpoint");
    };
    std::ostringstream toNativeOut, toVmOut;
    Simulation toNative(echoOptions(rs, "native", toNativeOut));
    Simulation toVm(echoOptions(rs, "vm", toVmOut));
    toNative.restore(viaCheckpoint(vm));
    toVm.restore(viaCheckpoint(native));
    EXPECT_EQ(normalizedBytes(toNative), normalizedBytes(vm));
    EXPECT_EQ(normalizedBytes(toVm), normalizedBytes(vm));

    vm.run(kTotal - kHalf);
    toNative.run(kTotal - kHalf);
    toVm.run(kTotal - kHalf);
    EXPECT_EQ(nativeHead.str() + toNativeOut.str(), vmHead.str());
    EXPECT_EQ(nativeHead.str() + toVmOut.str(), vmHead.str());
    EXPECT_EQ(normalizedBytes(toNative), normalizedBytes(vm));
    EXPECT_EQ(normalizedBytes(toVm), normalizedBytes(vm));
}

/** Every ordered saver/restorer pair, including saver == restorer
 *  (persistence without engine hopping must obviously hold too). */
INSTANTIATE_TEST_SUITE_P(
    Matrix, CheckpointPortability,
    ::testing::Combine(::testing::Values("interp", "vm", "symbolic",
                                         "native"),
                       ::testing::Values("interp", "vm", "symbolic",
                                         "native")),
    [](const auto &info) {
        return std::get<0>(info.param) + "_to_" +
               std::get<1>(info.param);
    });

} // namespace
} // namespace asim
