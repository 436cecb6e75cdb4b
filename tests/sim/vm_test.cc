/** @file VM-specific tests: compilation and optimization behavior. */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "machines/counter.hh"
#include "machines/stack_machine.hh"
#include "machines/synthetic.hh"
#include "sim/checkpoint.hh"
#include "sim/compiler.hh"
#include "sim/interpreter.hh"
#include "sim/vm.hh"

#ifndef ASIM_SPECS_DIR
#define ASIM_SPECS_DIR "specs"
#endif

namespace asim {
namespace {

int
countOp(const std::vector<Instr> &code, Op op)
{
    int n = 0;
    for (const auto &in : code)
        n += in.op == op ? 1 : 0;
    return n;
}

TEST(Vm, ConstAluInlined)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Program withOpt = compileProgram(rs, {});
    CompilerOptions off;
    off.inlineConstAlu = false;
    Program without = compileProgram(rs, off);
    // Constant function 4 gets the direct add opcode.
    EXPECT_EQ(countOp(withOpt.comb, Op::AluGen), 0);
    EXPECT_EQ(countOp(withOpt.comb, Op::AluAdd), 1);
    EXPECT_EQ(countOp(without.comb, Op::AluGen), 1);
    EXPECT_EQ(countOp(without.comb, Op::AluAdd), 0);
}

TEST(Vm, SingleFieldLatchesFused)
{
    // The counter memory's address (constant 0) and operation
    // (constant 1) fuse into immediate latch opcodes.
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Program p = compileProgram(rs, {});
    EXPECT_EQ(countOp(p.latch, Op::MemAdrC), 1);
    EXPECT_EQ(countOp(p.latch, Op::MemOpnC), 1);
    EXPECT_EQ(countOp(p.latch, Op::MemAdr), 0);
    EXPECT_EQ(countOp(p.latch, Op::MemOpn), 0);
}

TEST(Vm, DisassemblerCoversProgram)
{
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(5), 100));
    Vm vm(rs, {}, {});
    std::string dis = vm.program().disassemble();
    EXPECT_NE(dis.find("comb:"), std::string::npos);
    EXPECT_NE(dis.find("latch:"), std::string::npos);
    EXPECT_NE(dis.find("update:"), std::string::npos);
    EXPECT_NE(dis.find("seltab"), std::string::npos);
    // Every emitted line names a real opcode (no "?" placeholders).
    EXPECT_EQ(dis.find(": ? "), std::string::npos);
}

TEST(Vm, ConstMemSpecialized)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Program p = compileProgram(rs, {});
    EXPECT_EQ(countOp(p.update, Op::MemWrite), 1);
    EXPECT_EQ(countOp(p.update, Op::MemGenPre), 0);

    CompilerOptions off;
    off.specializeConstMem = false;
    Program q = compileProgram(rs, off);
    EXPECT_EQ(countOp(q.update, Op::MemWrite), 0);
    EXPECT_EQ(countOp(q.update, Op::MemGenPre), 1);
}

TEST(Vm, ConstSelectorBecomesTable)
{
    // The stack machine's microcode ROM is an all-constant selector.
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(5), 100));
    Program p = compileProgram(rs, {});
    EXPECT_GT(countOp(p.comb, Op::SelTable), 0);

    CompilerOptions off;
    off.constSelectorTables = false;
    Program q = compileProgram(rs, off);
    EXPECT_EQ(countOp(q.comb, Op::SelTable), 0);
    EXPECT_GT(countOp(q.comb, Op::Switch), 0);
}

TEST(Vm, AllConstAluFullyFolded)
{
    ResolvedSpec rs = resolveText("# fold\n"
                                  "r .\n"
                                  "A r 4 20 22\n"
                                  ".\n");
    Vm vm(rs, {}, {});
    // Constant-folded to SetC + StoreS: no ALU op at all.
    EXPECT_EQ(countOp(vm.program().comb, Op::AluConst), 0);
    EXPECT_EQ(countOp(vm.program().comb, Op::AluGen), 0);
    vm.step();
    EXPECT_EQ(vm.value("r"), 42);
}

TEST(Vm, OptimizationsPreserveSemantics)
{
    // Same machine with every optimization flag combination: final
    // state must agree.
    ResolvedSpec rs =
        resolveText(stackMachineSpec(sieveProgram(5), 3000));
    std::vector<int32_t> reference;
    for (int m = 0; m < 16; ++m) {
        CompilerOptions opts;
        opts.inlineConstAlu = m & 1;
        opts.specializeConstMem = m & 2;
        opts.constSelectorTables = m & 4;
        opts.elideUnusedTemps = m & 8;
        VectorIo io;
        EngineConfig cfg;
        cfg.io = &io;
        Vm vm(rs, cfg, opts);
        vm.run(3000);
        if (reference.empty()) {
            reference = io.outputsAt(1);
            EXPECT_FALSE(reference.empty());
        } else {
            EXPECT_EQ(io.outputsAt(1), reference) << "flags " << m;
        }
    }
}

TEST(Vm, TempElisionOnlyTouchesUnobservedMemories)
{
    // `m` is read by nothing: with elideUnusedTemps its latch may stay
    // zero, but cells and every observed component are unaffected.
    const char *text = "# elide\n"
                       "inc count m .\n"
                       "A inc 4 count 1\n"
                       "M m count.0.2 count 0 8\n"
                       "M count 0 inc 1 1\n"
                       ".\n";
    ResolvedSpec rs = resolveText(text);
    CompilerOptions opts;
    opts.elideUnusedTemps = true;
    Vm vm(rs, {}, opts);
    vm.run(5);
    Vm plain(rs, {}, {});
    plain.run(5);
    EXPECT_EQ(vm.value("count"), plain.value("count"));
    EXPECT_EQ(vm.stats().mems[0].reads, plain.stats().mems[0].reads);
}

TEST(Vm, ProgramSizesReported)
{
    ResolvedSpec rs = resolveText(counterSpec(4, 10));
    Vm vm(rs, {}, {});
    EXPECT_GT(vm.program().totalInstructions(), 0u);
}

/** SimStats must not depend on the engine: ALUs the compiler folds
 *  to constant stores still count as evaluated every cycle. */
void
expectStatsMatchInterpreter(const ResolvedSpec &rs, uint64_t cycles,
                            const std::string &what)
{
    auto interp = makeInterpreter(rs);
    auto vm = makeVm(rs);
    interp->run(cycles);
    vm->run(cycles);
    const SimStats &a = interp->stats();
    const SimStats &b = vm->stats();
    EXPECT_EQ(b.cycles, a.cycles) << what;
    EXPECT_EQ(b.aluEvals, a.aluEvals) << what;
    EXPECT_EQ(b.selEvals, a.selEvals) << what;
    ASSERT_EQ(b.mems.size(), a.mems.size()) << what;
    for (size_t i = 0; i < a.mems.size(); ++i) {
        EXPECT_EQ(b.mems[i].reads, a.mems[i].reads) << what;
        EXPECT_EQ(b.mems[i].writes, a.mems[i].writes) << what;
        EXPECT_EQ(b.mems[i].inputs, a.mems[i].inputs) << what;
        EXPECT_EQ(b.mems[i].outputs, a.mems[i].outputs) << what;
    }
}

TEST(Vm, StatsMatchInterpreterOnEverySpec)
{
    int specs = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(ASIM_SPECS_DIR)) {
        if (entry.path().extension() != ".asim")
            continue;
        ResolvedSpec rs = resolve(parseSpecFile(entry.path().string()));
        expectStatsMatchInterpreter(rs, 40, entry.path().string());
        ++specs;
    }
    EXPECT_GE(specs, 7);
    expectStatsMatchInterpreter(
        resolve(generateSynthetic(syntheticPreset("1k"))), 10,
        "synthetic 1k");
}

/** Two selectors indexed by the whole `count` word: both leave their
 *  two cases at cycle 2, `s1` first in rs.comb order. `late`, `late2`
 *  and `tail` share `early`'s level and shape, so without the fault
 *  barriers the schedule would hoist them above `s1`. */
const char *kTwoSelectorFaults = "# two selector faults\n"
                                 "= 10\n"
                                 "count early s1 late mid late2 s2 "
                                 "tail .\n"
                                 "A early 4 count 1\n"
                                 "S s1 count 0 1\n"
                                 "A late 4 count 10\n"
                                 "A mid 7 late 2\n"
                                 "A late2 4 count 30\n"
                                 "S s2 count 5 6\n"
                                 "A tail 4 count 20\n"
                                 "M count 0 early 1 1\n"
                                 ".\n";

/** A dynamic ALU function (`count`) and a 14-case selector both fault
 *  at cycle 14; the ALU comes first in rs.comb order. */
const char *kAluAndSelectorFaults =
    "# alu and selector faults\n"
    "= 20\n"
    "count early f late mid late2 s tail .\n"
    "A early 4 count 1\n"
    "A f count early 1\n"
    "A late 4 count 10\n"
    "A mid 7 late 2\n"
    "A late2 4 count 30\n"
    "S s count 0 1 2 3 4 5 6 7 8 9 10 11 12 13\n"
    "A tail 4 count 20\n"
    "M count 0 early 1 1\n"
    ".\n";

/** The schedule is a permutation of rs.comb in which every var slot
 *  is written before it is read. */
void
expectTopologicalPermutation(const ResolvedSpec &rs,
                             const std::vector<uint32_t> &order)
{
    std::vector<uint32_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    std::vector<uint32_t> iota(rs.comb.size());
    std::iota(iota.begin(), iota.end(), 0u);
    ASSERT_EQ(sorted, iota);

    std::vector<bool> written(rs.numVarSlots, false);
    for (uint32_t i : order) {
        const CombComp &c = rs.comb[i];
        std::vector<const ResolvedExpr *> reads = {
            &c.funct, &c.left, &c.right, &c.select};
        for (const auto &e : c.cases)
            reads.push_back(&e);
        for (const ResolvedExpr *e : reads) {
            for (const auto &t : e->terms) {
                if (t.bank == ResolvedTerm::Bank::Var) {
                    EXPECT_TRUE(written[t.slot])
                        << c.name << " reads slot " << t.slot
                        << " before it is written";
                }
            }
        }
        written[c.slot] = true;
    }
}

TEST(VmSchedule, TopologicalPermutationOfComb)
{
    ResolvedSpec big = resolve(generateSynthetic(syntheticPreset("1k")));
    const CombSchedule s = scheduleComb(big);
    expectTopologicalPermutation(big, s.order);
    EXPECT_EQ(s.segments, 1u); // every synthetic index is in range
    std::vector<uint32_t> iota(big.comb.size());
    std::iota(iota.begin(), iota.end(), 0u);
    EXPECT_NE(s.order, iota);

    // Faulting selectors stay at their rs.comb positions (1 and 5);
    // the run between them is reordered by level: late, late2, mid.
    ResolvedSpec rs = resolveText(kTwoSelectorFaults);
    const CombSchedule f = scheduleComb(rs);
    expectTopologicalPermutation(rs, f.order);
    std::vector<std::string> names;
    for (uint32_t i : f.order)
        names.push_back(rs.comb[i].name);
    EXPECT_EQ(names,
              (std::vector<std::string>{"early", "s1", "late", "late2",
                                        "mid", "s2", "tail"}));
    EXPECT_EQ(f.segments, 3u);
    EXPECT_EQ(f.shapes, 4u); // add-of-temp, mul, two selector forms

    // The dump reports the same two figures.
    const Program p = compileProgram(rs, {});
    EXPECT_EQ(p.opt.segments, 3u);
    EXPECT_EQ(p.opt.shapes, 4u);
    EXPECT_NE(p.disassemble().find(" segments=3 shapes=4\n"),
              std::string::npos);
}

TEST(VmSchedule, FirstFaultAndPostFaultStateMatchInterpreter)
{
    struct Case
    {
        const char *text;
        const char *error;
    };
    for (const Case &k :
         {Case{kTwoSelectorFaults,
               "selector s1 index 2 outside its 2 cases (cycle 2)"},
          Case{kAluAndSelectorFaults,
               "ALU function 14 out of range 0..13"}}) {
        ResolvedSpec rs = resolveText(k.text);
        auto interp = makeInterpreter(rs);
        auto vm = makeVm(rs);
        std::string interpError, vmError;
        try {
            interp->run(20);
        } catch (const SimError &e) {
            interpError = e.what();
        }
        try {
            vm->run(20);
        } catch (const SimError &e) {
            vmError = e.what();
        }
        EXPECT_EQ(interpError, k.error);
        EXPECT_EQ(vmError, interpError);
        EXPECT_EQ(vm->cycle(), interp->cycle());
        // The faulting cycle wrote `early` but none of the
        // components after the first fault.
        EXPECT_EQ(vm->state().vars, interp->state().vars) << k.error;
        EXPECT_EQ(vm->value("early"), vm->value("count") + 1);
        EXPECT_EQ(vm->value("late"), vm->value("count") - 1 + 10);
        EXPECT_TRUE(vm->state() == interp->state());
    }
}

TEST(Vm, WideDesignMatchesInterpreter)
{
    // More var slots than a 16-bit operand can name: every slot and
    // memory index must survive into the instruction stream.
    ResolvedSpec rs =
        resolve(generateSynthetic(syntheticPreset("66000")));
    ASSERT_GT(rs.comb.size(), 65536u);
    auto interp = makeInterpreter(rs);
    auto vm = makeVm(rs);
    interp->run(3);
    vm->run(3);
    const uint64_t hash = specIdentityHash(rs);
    EXPECT_EQ(encodeCheckpoint(vm->snapshot(), hash, "engine"),
              encodeCheckpoint(interp->snapshot(), hash, "engine"));
}

} // namespace
} // namespace asim
