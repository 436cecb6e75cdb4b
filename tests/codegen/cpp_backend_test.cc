/** @file Structural tests for the C++ backend output. */

#include <gtest/gtest.h>

#include "analysis/resolve.hh"
#include "codegen/codegen.hh"
#include "machines/counter.hh"
#include "machines/stack_machine.hh"
#include "support/text.hh"

namespace asim {
namespace {

TEST(CppBackend, CounterShape)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    std::string code = generateCpp(rs);
    // State lives in one struct whose members keep the thesis names.
    EXPECT_TRUE(contains(code, "struct State"));
    EXPECT_TRUE(contains(code, "    int32_t ljbnext;"));
    EXPECT_TRUE(contains(code, "    int32_t ljbcount[1];"));
    EXPECT_TRUE(contains(code, "land(int32_t a, int32_t b)"));
    EXPECT_TRUE(contains(code, "long long cycles = 20;"));
    EXPECT_TRUE(
        contains(code, "ljbnext = land(tempcount, 15) + 1;"));
    EXPECT_TRUE(contains(code, "SIM_NS"));
}

TEST(CppBackend, TraceLineMatchesEngineFormat)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    std::string code = generateCpp(rs);
    // The cycle body emits trace events; the standalone shell prints
    // them in the engines' StreamTrace format.
    EXPECT_TRUE(contains(code, "tbegin(cyclecount);"));
    EXPECT_TRUE(contains(code, "tvalue(\"count\", tempcount);"));
    EXPECT_TRUE(contains(code, "std::printf(\"Cycle %3lld\", cycle);"));
    EXPECT_TRUE(contains(code, "std::printf(\" %s= %d\", name, (int)v);"));
}

TEST(CppBackend, NoTraceOption)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    CodegenOptions opts;
    opts.emitTrace = false;
    std::string code = generateCpp(rs, opts);
    EXPECT_FALSE(contains(code, "tbegin(cyclecount);"));
}

TEST(CppBackend, SelectorSwitchWithBoundsDefault)
{
    ResolvedSpec rs = resolveText("# sel\n"
                                  "s m .\n"
                                  "S s m 1 2\n"
                                  "M m 0 0 0 4\n"
                                  ".\n");
    std::string code = generateCpp(rs);
    EXPECT_TRUE(contains(code, "switch (tempm) {"));
    EXPECT_TRUE(contains(code, "case 0: ljbs = 1; break;"));
    EXPECT_TRUE(contains(code, "selfail(\"s\""));
}

TEST(CppBackend, MemoryBoundsChecks)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    std::string code = generateCpp(rs);
    EXPECT_TRUE(contains(code, "adrfail(\"count\""));
}

TEST(CppBackend, DynamicMemoryOperation)
{
    ResolvedSpec rs = resolveText("# dyn\n"
                                  "m op .\n"
                                  "A op 2 0 0\n"
                                  "M m 0 op op.0.3 4\n"
                                  ".\n");
    std::string code = generateCpp(rs);
    EXPECT_TRUE(contains(code, "switch (land(opnm, 3)) {"));
    EXPECT_TRUE(contains(code, "sinput(adrm)"));
    EXPECT_TRUE(contains(code, "soutput(adrm, tempm);"));
    EXPECT_TRUE(contains(code, "if (land(opnm, 5) == 5)"));
    EXPECT_TRUE(contains(code, "if (land(opnm, 9) == 8)"));
}

TEST(CppBackend, FixedShiftSemanticsOption)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    CodegenOptions thesis;
    CodegenOptions fixed;
    fixed.aluSemantics = AluSemantics::Fixed;
    std::string a = generateCpp(rs, thesis);
    std::string b = generateCpp(rs, fixed);
    EXPECT_NE(a, b);
    EXPECT_TRUE(contains(b, "value = land(left, mask);"));
}

TEST(CppBackend, StackMachineGeneratesLargeSwitchTables)
{
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(5), 1000));
    std::string code = generateCpp(rs);
    // The 144-state microcode ROM becomes one big switch.
    EXPECT_GE(countOccurrences(code, "case "), 144);
    EXPECT_TRUE(contains(code, "    int32_t ljbram[256];"));
}

/** CodegenOptions::emitServeLoop emits the in-process engine ABI. */
TEST(CppBackend, ServeLoopShape)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    CodegenOptions opts;
    opts.emitServeLoop = true;
    std::string code = generateCpp(rs, opts);
    // The C ABI codegen/native.hh resolves, and no main().
    for (const char *fn :
         {"asim_create(const asim_host *host)", "asim_destroy(void *m)",
          "asim_reset(void *p)",
          "asim_run(void *p, uint64_t *cycle, uint64_t n)",
          "asim_get_state(const void *p, int32_t *out)",
          "asim_set_state(void *p, const int32_t *in)"})
        EXPECT_TRUE(contains(code, fn)) << fn;
    EXPECT_FALSE(contains(code, "main(int argc"));
    // One next var + count's temp/adr/opn + its one cell.
    EXPECT_TRUE(contains(code, "kStateWords = 5;"));
    // The cycle body is the standalone one; only the hooks differ.
    EXPECT_TRUE(contains(code, "ljbnext = land(tempcount, 15) + 1;"));
    EXPECT_TRUE(contains(code, "tvalue(\"count\", tempcount);"));
    EXPECT_TRUE(contains(code, "host->value(host->ctx, name, v);"));
    // Faults carry the in-process engines' messages.
    EXPECT_TRUE(contains(code, "outside 0..%d (cycle %lld)"));
    EXPECT_TRUE(contains(code, "std::longjmp(fault, 1);"));
}

TEST(CppBackend, OneShotBuildsCarryNoServePlumbing)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    std::string code = generateCpp(rs);
    EXPECT_FALSE(contains(code, "asim_run"));
    EXPECT_FALSE(contains(code, "asim_host"));
    EXPECT_FALSE(contains(code, "longjmp"));
    EXPECT_TRUE(contains(code, "cycles = std::atoll(argv[1]);"));
    // The optional state dump prints to stderr after the loop.
    CodegenOptions dump;
    dump.emitStateDump = true;
    std::string plain = generateCpp(rs, dump);
    EXPECT_TRUE(contains(plain, "std::fprintf(stderr, \"STATE_V "));
    EXPECT_TRUE(contains(plain, "machine.dumpstate();"));
}

TEST(CppBackend, GeneratedCodeIsDeterministic)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 20));
    EXPECT_EQ(generateCpp(rs), generateCpp(rs));
    EXPECT_EQ(generatePascal(rs), generatePascal(rs));
}

} // namespace
} // namespace asim
