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
#include "sim/symbolic.hh"
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
    EXPECT_NE(p.disassemble().find(" segments=3 shapes=4 folded=0 "
                                   "hoisted=0\n"),
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
               "ALU f function 14 outside 0..13 (cycle 14)"}}) {
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

/** A cascade of constants: `k` is a literal ALU, `b`'s dynamic
 *  function folds to 7 (multiply) through `x`, and `s`'s index folds
 *  to 1 through `k`. Only `t` and the memory stay live. `b` can fault
 *  as far as the schedule knows, so `x` and `k` lead it and `b` and
 *  `s` follow. */
const char *kConstCascade = "# constant cascade\n"
                            "= 10\n"
                            "count x k b s t .\n"
                            "A x 1 0 7\n"
                            "A k 4 2 3\n"
                            "A b x k 2\n"
                            "S s k.0.0 count b\n"
                            "A t 4 s count\n"
                            "M count 0 t 1 1\n"
                            ".\n";

/** `k1` and `g` precede the barrier `f`, whose dynamic function
 *  `g = count + k1` is 14 at cycle 0; `k2` and `t` follow it. */
const char *kConstBarrier = "# constants around a barrier\n"
                            "= 10\n"
                            "count k1 g f k2 t .\n"
                            "A k1 1 0 14\n"
                            "A g 4 count k1\n"
                            "A f g 1 1\n"
                            "A k2 1 0 9\n"
                            "A t 4 k2 count\n"
                            "M count 0 g 1 1\n"
                            ".\n";

/** Var slots an instruction of the canonical streams reads. */
std::vector<uint32_t>
slotsRead(const Instr &in)
{
    switch (in.op) {
      case Op::LoadVar:
      case Op::AccVar:
        return {in.idx};
      case Op::StoreFVar:
      case Op::MemAdrFVar:
      case Op::MemOpnFVar:
        return {static_cast<uint32_t>(in.c)};
      default:
        return {};
    }
}

/** Run `cycles` cycles on vm and interp from the same start and
 *  require the same fault text, cycle and state. */
void
expectSameRun(Engine &vm, Engine &interp, uint64_t cycles,
              const std::string &what)
{
    std::string vmError, interpError;
    try {
        vm.run(cycles);
    } catch (const SimError &e) {
        vmError = e.what();
    }
    try {
        interp.run(cycles);
    } catch (const SimError &e) {
        interpError = e.what();
    }
    EXPECT_EQ(vmError, interpError) << what;
    EXPECT_EQ(vm.cycle(), interp.cycle()) << what;
    EXPECT_EQ(vm.state().vars, interp.state().vars) << what;
    EXPECT_TRUE(vm.state() == interp.state()) << what;
}

TEST(VmConstProp, CascadeFoldsAwayEveryConstantSlot)
{
    ResolvedSpec rs = resolveText(kConstCascade);
    const Program p = compileProgram(rs, {});
    const std::vector<uint32_t> folded = {
        static_cast<uint32_t>(rs.varSlot("x")),
        static_cast<uint32_t>(rs.varSlot("k")),
        static_cast<uint32_t>(rs.varSlot("b")),
        static_cast<uint32_t>(rs.varSlot("s"))};

    // All four fold and no instruction of any phase reads them. The
    // two ahead of the first possible fault are written once per
    // run; `b` and `s` are stored each cycle in their place.
    std::vector<uint32_t> hoisted;
    for (const ConstWrite &w : p.prologue)
        hoisted.push_back(w.slot);
    EXPECT_EQ(hoisted, std::vector<uint32_t>(folded.begin(),
                                             folded.begin() + 2));
    EXPECT_EQ(p.opt.folded, 4u);
    EXPECT_EQ(p.opt.hoisted, 2u);
    EXPECT_EQ(countOp(p.comb, Op::StoreC), 2);
    for (const auto *code : {&p.comb, &p.latch, &p.update}) {
        for (const Instr &in : *code) {
            for (uint32_t slot : slotsRead(in)) {
                EXPECT_EQ(std::count(folded.begin(), folded.end(), slot),
                          0)
                    << opName(in.op) << " reads folded slot " << slot;
            }
        }
    }
    // t = s + count folds to one constant-plus-field add.
    EXPECT_EQ(countOp(p.comb, Op::AluGen), 0);
    EXPECT_EQ(countOp(p.comb, Op::Switch), 0);
    EXPECT_EQ(countOp(p.comb, Op::SelTable), 0);
    EXPECT_NE(p.disassemble().find("folded=4 hoisted=2\n"),
              std::string::npos);

    auto vm = makeVm(rs);
    auto interp = makeInterpreter(rs);
    expectSameRun(*vm, *interp, 10, "cascade");
    EXPECT_EQ(vm->value("b"), 10);
    EXPECT_EQ(vm->value("s"), 10);
}

TEST(VmConstProp, BarrierKeepsLaterConstantsUnwritten)
{
    ResolvedSpec rs = resolveText(kConstBarrier);
    const Program p = compileProgram(rs, {});
    // k1 leads the schedule and is hoisted; k2 sits behind the
    // barrier and keeps its per-cycle store.
    EXPECT_EQ(p.prologue.size(), 1u);
    EXPECT_EQ(p.prologue.at(0).slot,
              static_cast<uint32_t>(rs.varSlot("k1")));
    EXPECT_EQ(p.opt.folded, 2u);
    EXPECT_EQ(countOp(p.comb, Op::StoreC), 1);

    const std::string fault =
        "ALU f function 14 outside 0..13 (cycle 0)";
    auto vm = makeVm(rs);
    auto interp = makeInterpreter(rs);
    expectSameRun(*vm, *interp, 5, "after construction");
    EXPECT_EQ(vm->value("k1"), 14);
    EXPECT_EQ(vm->value("k2"), 0);

    // The same first-cycle fault after reset() ...
    vm->reset();
    interp->reset();
    expectSameRun(*vm, *interp, 5, "after reset");

    // ... and after a restore whose constants were edited: the fault
    // overwrites k1 but never reaches k2.
    interp->reset();
    EngineSnapshot snap = interp->snapshot();
    snap.state.vars[rs.varSlot("k1")] = 99;
    snap.state.vars[rs.varSlot("k2")] = 98;
    vm->restore(snap);
    interp->restore(snap);
    expectSameRun(*vm, *interp, 5, "after an edited restore");
    EXPECT_EQ(vm->value("k1"), 14);
    EXPECT_EQ(vm->value("k2"), 98);
    try {
        vm->run(1);
        ADD_FAILURE() << "no fault";
    } catch (const SimError &e) {
        EXPECT_EQ(std::string(e.what()), fault);
    }
}

TEST(VmConstProp, FoldedOutOfRangeFaultsAtRunTime)
{
    // `k` is 14: as `f`'s function and as `s`'s index it folds to a
    // constant out of range, which must still fault when it runs.
    struct Case
    {
        const char *text;
        const char *error;
    };
    for (const Case &c :
         {Case{"# folded bad function\n"
               "k f .\n"
               "A k 1 0 14\n"
               "A f k 1 1\n"
               ".\n",
               "ALU f function 14 outside 0..13 (cycle 0)"},
          Case{"# folded bad index\n"
               "k s .\n"
               "A k 1 0 14\n"
               "S s k 1 2\n"
               ".\n",
               "selector s index 14 outside its 2 cases (cycle 0)"}}) {
        ResolvedSpec rs = resolveText(c.text);
        auto vm = makeVm(rs);
        auto interp = makeInterpreter(rs);
        try {
            vm->run(3);
            ADD_FAILURE() << "no fault";
        } catch (const SimError &e) {
            EXPECT_EQ(std::string(e.what()), c.error);
        }
        vm->reset();
        expectSameRun(*vm, *interp, 3, c.text);
    }
}

TEST(VmConstProp, EditBetweenRunsIsOverwritten)
{
    ResolvedSpec rs = resolveText(kConstCascade);
    auto vm = makeVm(rs);
    auto interp = makeInterpreter(rs);
    vm->run(3);
    interp->run(3);
    for (const char *name : {"x", "k", "b", "s"}) {
        vm->state().vars[rs.varSlot(name)] = 1234;
        interp->state().vars[rs.varSlot(name)] = 1234;
    }
    // The edit is visible until the next cycle runs ...
    EXPECT_EQ(vm->value("s"), 1234);
    expectSameRun(*vm, *interp, 1, "edit then run(1)");
    // ... and a constant again after it.
    EXPECT_EQ(vm->value("x"), 7);
    EXPECT_EQ(vm->value("s"), 10);
    EXPECT_EQ(vm->value("t"), interp->value("t"));
}

TEST(VmConstProp, CycleZeroSnapshotMatchesInterpreter)
{
    for (const char *text : {kConstCascade, kConstBarrier}) {
        ResolvedSpec rs = resolveText(text);
        auto vm = makeVm(rs);
        auto interp = makeInterpreter(rs);
        const uint64_t hash = specIdentityHash(rs);
        EXPECT_EQ(encodeCheckpoint(vm->snapshot(), hash, "engine"),
                  encodeCheckpoint(interp->snapshot(), hash, "engine"))
            << text;
        vm->run(0);
        EXPECT_TRUE(vm->state() == interp->state()) << text;
    }
}

TEST(VmConstProp, OffLeavesTheStreamUnfolded)
{
    CompilerOptions off;
    off.inlineConstAlu = false;
    const char *literalIndex = "# literal index\n"
                               "count c .\n"
                               "S c 1 count count\n"
                               "M count 0 c 1 1\n"
                               ".\n";
    for (const char *text : {kConstCascade, kConstBarrier, literalIndex}) {
        ResolvedSpec rs = resolveText(text);
        const Program p = compileProgram(rs, off);
        EXPECT_TRUE(p.prologue.empty());
        EXPECT_EQ(p.opt.folded, 0u);
        EXPECT_EQ(p.opt.hoisted, 0u);
        // Every component keeps its own evaluation: one generic ALU
        // per ALU, one table or switch per selector, nothing stored
        // as a constant.
        int alus = 0, sels = 0;
        for (const CombComp &c : rs.comb)
            (c.kind == CompKind::Alu ? alus : sels) += 1;
        EXPECT_EQ(countOp(p.comb, Op::AluGen), alus) << text;
        EXPECT_EQ(countOp(p.comb, Op::Switch) +
                      countOp(p.comb, Op::SelTable),
                  sels)
            << text;
        EXPECT_EQ(countOp(p.comb, Op::StoreC), 0) << text;
        EXPECT_EQ(p.selInfos.size(), static_cast<size_t>(sels));

        auto vm = makeVm(rs, {}, off);
        auto interp = makeInterpreter(rs);
        expectSameRun(*vm, *interp, 10, text);
    }
}

TEST(AluFault, EveryEngineNamesTheAluAndCycle)
{
    // Function `count.0.4` reaches 14 at cycle 14.
    ResolvedSpec rs = resolveText("# dynbad\n"
                                  "inc count r .\n"
                                  "A inc 4 count 1\n"
                                  "M count 0 inc 1 1\n"
                                  "A r count.0.4 1 1\n"
                                  ".\n");
    std::vector<std::unique_ptr<Engine>> engines;
    engines.push_back(makeVm(rs));
    engines.push_back(makeInterpreter(rs));
    engines.push_back(makeSymbolicInterpreter(rs));
    for (auto &e : engines) {
        try {
            e->run(20);
            ADD_FAILURE() << "no fault";
        } catch (const SimError &err) {
            EXPECT_EQ(std::string(err.what()),
                      "ALU r function 14 outside 0..13 (cycle 14)");
        }
        EXPECT_EQ(e->cycle(), 14u);
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
