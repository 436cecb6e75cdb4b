#include "sim/vm.hh"

#include "sim/compiler.hh"
#include "support/bitops.hh"
#include "support/metrics.hh"

namespace asim {

Vm::Vm(std::shared_ptr<const ResolvedSpec> rs,
       const EngineConfig &cfg, const CompilerOptions &opts)
    : Engine(std::move(rs), cfg),
      // Compile from the engine's shared spec (rs_), never the
      // caller's argument, which may have been moved from.
      prog_(std::make_shared<const Program>(
          compileProgram(*rs_, opts, cfg.trace != nullptr)))
{}

Vm::Vm(std::shared_ptr<const ResolvedSpec> rs,
       const EngineConfig &cfg, std::shared_ptr<const Program> program)
    : Engine(std::move(rs), cfg), prog_(std::move(program))
{}

void
Vm::checkAddr(const MemoryState &ms, uint32_t idx,
              uint64_t cycle) const
{
    throw SimError("memory " + prog_->memInfos[idx].name +
                   " address " + std::to_string(ms.adr) +
                   " outside 0.." +
                   std::to_string(ms.cells.size() - 1) + " (cycle " +
                   std::to_string(cycle) + ")");
}

void
Vm::selFail(const Instr &in, int32_t sel, uint64_t cycle) const
{
    const SelInfo &si = prog_->selInfos[in.c];
    throw SimError("selector " + si.name + " index " +
                   std::to_string(sel) + " outside its " +
                   std::to_string(si.caseCount) + " cases (cycle " +
                   std::to_string(cycle) + ")");
}

void
Vm::aluFault(uint32_t slot, int32_t funct, uint64_t cycle) const
{
    for (const CombComp &c : rs_->comb) {
        if (c.slot == static_cast<int>(slot))
            aluFail(c.name, funct, cycle);
    }
    aluFail("?", funct, cycle);
}

void
Vm::memTrace(const MemoryState &ms, const Instr &in) const
{
    // Cold path: only reached when the compiler left a trace flag on
    // the instruction, which implies a sink was configured.
    if (in.reg & kMemFlagTraceW) {
        if (land(ms.opn, 5) == 5) {
            cfg_.trace->memWrite(prog_->memInfos[in.idx].name, ms.adr,
                                 ms.temp);
        }
    }
    if (in.reg & kMemFlagTraceR) {
        if (land(ms.opn, 9) == 8) {
            cfg_.trace->memRead(prog_->memInfos[in.idx].name, ms.adr,
                                ms.temp);
        }
    }
}

// Field decode of an instruction word's operands: slot in idx
// (load-style words) or in c (store/latch-style words, whose idx
// names the destination).
#define ASIM_FLDV(w) shiftField(land(vars[(w).idx], (w).a), (w).b)
#define ASIM_FLDT(w) \
    shiftField(land(mems[(w).idx].temp, (w).a), (w).b)
#define ASIM_FLDVC(w) shiftField(land(vars[(w).c], (w).a), (w).b)
#define ASIM_FLDTC(w) \
    shiftField(land(mems[(w).c].temp, (w).a), (w).b)

// Threaded dispatch (labels as values, which GCC and Clang both
// provide): every handler ends in its own indirect `goto *tbl[op]`,
// giving the branch predictor one site per opcode pair instead of a
// single shared dispatch branch.
#define CASE(name) H_##name:
#define DISPATCH() goto *tbl[static_cast<uint8_t>(ip->op)]
#define NEXT() \
    do { \
        ++ip; \
        DISPATCH(); \
    } while (0)
#define NEXT2() \
    do { \
        ip += 2; \
        DISPATCH(); \
    } while (0)
#define NEXTN(k) \
    do { \
        ip += (k); \
        DISPATCH(); \
    } while (0)
#define JUMP(t) \
    do { \
        ip = base + (t); \
        DISPATCH(); \
    } while (0)

void
Vm::runCycles(uint64_t n)
{
    int32_t *const vars = state_.vars.data();
    MemoryState *const mems = state_.mems.data();
    const Instr *const base = prog_->cycle.data();
    const uint32_t *const jt = prog_->cycleJumpTable.data();
    const int32_t *const ct = prog_->constTable.data();
    IoDevice *const io = io_;
    const AluSemantics alu = cfg_.aluSemantics;
    const bool tracing = cfg_.trace != nullptr;
    const uint64_t cycle0 = cycle_;

    int32_t s[4] = {0, 0, 0, 0};
    uint64_t left = n;
    const Instr *ip = base;

    // Cycles completed so far = n - left; faults report the cycle in
    // progress, which is that same number.
    const auto curCycle = [&] { return cycle0 + (n - left); };
    const auto flush = [&] {
        cycle_ = cycle0 + (n - left);
        countCycles(n - left);
        if (metrics::timingEnabled()) {
            // Sampled at run exit, never from inside the dispatch
            // loop: the off path stays one relaxed load. Dispatch is
            // reported as cycles x static stream length (selector
            // jumps may skip ops, so this is the dispatch upper bound
            // the fusion ratio is read from).
            static metrics::Counter &streamOps =
                metrics::counter("vm.dispatch.stream_ops");
            streamOps.add((n - left) * prog_->cycle.size());
        }
    };
    const auto badAddr = [](const MemoryState &ms) {
        return static_cast<uint64_t>(
                   static_cast<int64_t>(ms.adr)) >= ms.cells.size();
    };
    const auto badFunct = [](int32_t f) {
        return static_cast<uint32_t>(f) >= kAluFunctionCount;
    };

    // The leading constants. No instruction reads these slots, and
    // each cycle would store them before anything can fault, so
    // writing them once per run is exact (docs/INTERNALS.md,
    // "Constant propagation").
    for (const ConstWrite &w : prog_->prologue)
        vars[w.slot] = w.value;

    try {
        // One entry per Op, in exact enum order (sim/bytecode.hh).
        static const void *const tbl[] = {
            &&H_SetC, &&H_LoadVar, &&H_LoadTemp, &&H_AccVar,
            &&H_AccTemp,
            &&H_AluGen, &&H_AluConst, &&H_AluZero, &&H_AluRight,
            &&H_AluLeft, &&H_AluNot, &&H_AluAdd, &&H_AluSub,
            &&H_AluMul, &&H_AluAnd, &&H_AluOr, &&H_AluXor, &&H_AluEq,
            &&H_AluLt,
            &&H_StoreS, &&H_StoreC, &&H_StoreFVar, &&H_StoreFTemp,
            &&H_Switch, &&H_Jump, &&H_SelTable,
            &&H_MemAdr, &&H_MemOpn, &&H_MemAdrC, &&H_MemOpnC,
            &&H_MemAdrFVar, &&H_MemAdrFTemp, &&H_MemOpnFVar,
            &&H_MemOpnFTemp,
            &&H_MemRead, &&H_MemWrite, &&H_MemInput, &&H_MemOutput,
            &&H_MemGenPre, &&H_MemGenData,
            &&H_TraceCycle, &&H_EndCycle, &&H_Nop, &&H_Ext,
            &&H_LoadPairCC, &&H_LoadPairCV, &&H_LoadPairCT,
            &&H_LoadPairVC, &&H_LoadPairVV, &&H_LoadPairVT,
            &&H_LoadPairTC, &&H_LoadPairTV, &&H_LoadPairTT,
            &&H_LoadAccCV, &&H_LoadAccCT, &&H_LoadAccVV,
            &&H_LoadAccVT, &&H_LoadAccTV, &&H_LoadAccTT,
            &&H_MemLatchCC, &&H_MemLatchVC, &&H_MemLatchTC,
            &&H_MemLatchVV,
            &&H_MemWriteC, &&H_MemWriteV, &&H_MemWriteT,
            &&H_MemOutputC, &&H_MemOutputV, &&H_MemOutputT,
            &&H_SelTableV, &&H_SelTableT, &&H_SwitchV, &&H_SwitchT,
            &&H_StoreSJ, &&H_StoreCJ, &&H_StoreFVarJ,
            &&H_StoreFTempJ,
            &&H_MemLatchCV, &&H_MemLatchCT, &&H_MemLatchVT,
            &&H_MemLatchTV, &&H_MemLatchTT,
            &&H_MemGenDataC, &&H_MemGenDataV, &&H_MemGenDataT,
#define ASIM_ALU_FUSED_LABEL(OPNAME, COMBO, L, R, V)                   \
            &&H_AluF##OPNAME##COMBO,
            ASIM_ALU_FUSED_ALL(ASIM_ALU_FUSED_LABEL)
#undef ASIM_ALU_FUSED_LABEL
            &&H_SelStoreV, &&H_SelStoreT,
            &&H_TraceLatchRun, &&H_AluGenF,
            &&H_MemGenC, &&H_MemGenV, &&H_MemGenT,
        };
        static_assert(sizeof(tbl) / sizeof(tbl[0]) == kOpCount,
                      "dispatch table out of sync with Op");
        DISPATCH();

        CASE(SetC)
        {
            s[ip->reg] = ip->a;
        }
        NEXT();
        CASE(LoadVar)
        {
            s[ip->reg] = ASIM_FLDV(*ip);
        }
        NEXT();
        CASE(LoadTemp)
        {
            s[ip->reg] = ASIM_FLDT(*ip);
        }
        NEXT();
        CASE(AccVar)
        {
            s[ip->reg] = wadd(s[ip->reg], ASIM_FLDV(*ip));
        }
        NEXT();
        CASE(AccTemp)
        {
            s[ip->reg] = wadd(s[ip->reg], ASIM_FLDT(*ip));
        }
        NEXT();

        CASE(AluGen)
        {
            if (badFunct(s[0]))
                aluFault(ip->idx, s[0], curCycle());
            vars[ip->idx] = dologic(s[0], s[1], s[2], alu);
        }
        NEXT();
        CASE(AluConst)
        {
            if (badFunct(ip->a))
                aluFault(ip->idx, ip->a, curCycle());
            vars[ip->idx] = dologic(ip->a, s[1], s[2], alu);
        }
        NEXT();
        CASE(AluZero)
        {
            vars[ip->idx] = 0;
        }
        NEXT();
        CASE(AluRight)
        {
            vars[ip->idx] = s[2];
        }
        NEXT();
        CASE(AluLeft)
        {
            vars[ip->idx] = s[1];
        }
        NEXT();
        CASE(AluNot)
        {
            vars[ip->idx] = wsub(kValueMask, s[1]);
        }
        NEXT();
        CASE(AluAdd)
        {
            vars[ip->idx] = wadd(s[1], s[2]);
        }
        NEXT();
        CASE(AluSub)
        {
            vars[ip->idx] = wsub(s[1], s[2]);
        }
        NEXT();
        CASE(AluMul)
        {
            vars[ip->idx] = wmul(s[1], s[2]);
        }
        NEXT();
        CASE(AluAnd)
        {
            vars[ip->idx] = land(s[1], s[2]);
        }
        NEXT();
        CASE(AluOr)
        {
            vars[ip->idx] =
                wsub(wadd(s[1], s[2]), land(s[1], s[2]));
        }
        NEXT();
        CASE(AluXor)
        {
            vars[ip->idx] =
                wsub(wadd(s[1], s[2]), wmul(land(s[1], s[2]), 2));
        }
        NEXT();
        CASE(AluEq)
        {
            vars[ip->idx] = s[1] == s[2] ? 1 : 0;
        }
        NEXT();
        CASE(AluLt)
        {
            vars[ip->idx] = s[1] < s[2] ? 1 : 0;
        }
        NEXT();

        CASE(StoreS)
        {
            vars[ip->idx] = s[ip->reg];
        }
        NEXT();
        CASE(StoreC)
        {
            vars[ip->idx] = ip->a;
        }
        NEXT();
        CASE(StoreFVar)
        {
            vars[ip->idx] = ASIM_FLDVC(*ip);
        }
        NEXT();
        CASE(StoreFTemp)
        {
            vars[ip->idx] = ASIM_FLDTC(*ip);
        }
        NEXT();

        CASE(Switch)
        {
            if (static_cast<uint32_t>(s[0]) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, s[0], curCycle());
            JUMP(jt[ip->a + s[0]]);
        }
        CASE(Jump)
        {
            JUMP(ip->a);
        }
        CASE(SelTable)
        {
            if (static_cast<uint32_t>(s[0]) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, s[0], curCycle());
            vars[ip->idx] = ct[ip->a + s[0]];
        }
        NEXT();

        CASE(MemAdr)
        {
            mems[ip->idx].adr = s[0];
        }
        NEXT();
        CASE(MemOpn)
        {
            mems[ip->idx].opn = s[0];
        }
        NEXT();
        CASE(MemAdrC)
        {
            mems[ip->idx].adr = ip->a;
        }
        NEXT();
        CASE(MemOpnC)
        {
            mems[ip->idx].opn = ip->a;
        }
        NEXT();
        CASE(MemAdrFVar)
        {
            mems[ip->idx].adr = ASIM_FLDVC(*ip);
        }
        NEXT();
        CASE(MemAdrFTemp)
        {
            mems[ip->idx].adr = ASIM_FLDTC(*ip);
        }
        NEXT();
        CASE(MemOpnFVar)
        {
            mems[ip->idx].opn = ASIM_FLDVC(*ip);
        }
        NEXT();
        CASE(MemOpnFTemp)
        {
            mems[ip->idx].opn = ASIM_FLDTC(*ip);
        }
        NEXT();

        CASE(MemRead)
        {
            MemoryState &ms = mems[ip->idx];
            if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx, curCycle());
            if (!(ip->reg & kMemFlagElideTemp))
                ms.temp = ms.cells[ms.adr];
            ++stats_.mems[ip->idx].reads;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemWrite)
        {
            MemoryState &ms = mems[ip->idx];
            if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx, curCycle());
            ms.temp = s[1];
            ms.cells[ms.adr] = s[1];
            ++stats_.mems[ip->idx].writes;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemInput)
        {
            MemoryState &ms = mems[ip->idx];
            ms.temp = io->input(ms.adr);
            ++stats_.mems[ip->idx].inputs;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemOutput)
        {
            MemoryState &ms = mems[ip->idx];
            ms.temp = s[1];
            io->output(ms.adr, s[1]);
            ++stats_.mems[ip->idx].outputs;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemGenPre)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t mop = land(ms.opn, 3);
            if (mop == mem_op::kWrite || mop == mem_op::kOutput)
                NEXT(); // fall through to the data expression code
            if (mop == mem_op::kRead) {
                if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                    checkAddr(ms, ip->idx, curCycle());
                if (!(ip->reg & kMemFlagElideTemp))
                    ms.temp = ms.cells[ms.adr];
                ++stats_.mems[ip->idx].reads;
            } else { // input
                ms.temp = io->input(ms.adr);
                ++stats_.mems[ip->idx].inputs;
            }
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
            JUMP(ip->a);
        }
        CASE(MemGenData)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t mop = land(ms.opn, 3);
            if (mop == mem_op::kWrite &&
                !(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx,
                          curCycle()); // before the latch is touched
            ms.temp = s[1];
            if (mop == mem_op::kWrite) {
                ms.cells[ms.adr] = s[1];
                ++stats_.mems[ip->idx].writes;
            } else { // output
                io->output(ms.adr, s[1]);
                ++stats_.mems[ip->idx].outputs;
            }
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();

        CASE(TraceCycle)
        {
            if (tracing) {
                cycle_ = curCycle();
                traceCycle();
            }
        }
        NEXT();
        CASE(EndCycle)
        {
            if (--left == 0)
                goto done;
            JUMP(0);
        }
        CASE(Nop)
        {
        }
        NEXT();
        CASE(Ext)
        {
            // Never dispatched: extension words are decoded by their
            // owning superinstruction (sim/optimizer.cc keeps jump
            // targets off them).
            throw SimError("internal: executed an extension word");
        }

        CASE(LoadPairCC)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ip->a;
            s[e.reg] = e.a;
        }
        NEXT2();
        CASE(LoadPairCV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ip->a;
            s[e.reg] = ASIM_FLDV(e);
        }
        NEXT2();
        CASE(LoadPairCT)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ip->a;
            s[e.reg] = ASIM_FLDT(e);
        }
        NEXT2();
        CASE(LoadPairVC)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ASIM_FLDV(*ip);
            s[e.reg] = e.a;
        }
        NEXT2();
        CASE(LoadPairVV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ASIM_FLDV(*ip);
            s[e.reg] = ASIM_FLDV(e);
        }
        NEXT2();
        CASE(LoadPairVT)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ASIM_FLDV(*ip);
            s[e.reg] = ASIM_FLDT(e);
        }
        NEXT2();
        CASE(LoadPairTC)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ASIM_FLDT(*ip);
            s[e.reg] = e.a;
        }
        NEXT2();
        CASE(LoadPairTV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ASIM_FLDT(*ip);
            s[e.reg] = ASIM_FLDV(e);
        }
        NEXT2();
        CASE(LoadPairTT)
        {
            const Instr &e = ip[1];
            s[ip->reg] = ASIM_FLDT(*ip);
            s[e.reg] = ASIM_FLDT(e);
        }
        NEXT2();

        CASE(LoadAccCV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ip->a, ASIM_FLDV(e));
        }
        NEXT2();
        CASE(LoadAccCT)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ip->a, ASIM_FLDT(e));
        }
        NEXT2();
        CASE(LoadAccVV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ASIM_FLDV(*ip), ASIM_FLDV(e));
        }
        NEXT2();
        CASE(LoadAccVT)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ASIM_FLDV(*ip), ASIM_FLDT(e));
        }
        NEXT2();
        CASE(LoadAccTV)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ASIM_FLDT(*ip), ASIM_FLDV(e));
        }
        NEXT2();
        CASE(LoadAccTT)
        {
            const Instr &e = ip[1];
            s[ip->reg] = wadd(ASIM_FLDT(*ip), ASIM_FLDT(e));
        }
        NEXT2();

        CASE(MemLatchCC)
        {
            MemoryState &ms = mems[ip->idx];
            ms.adr = ip->a;
            ms.opn = ip->b;
        }
        NEXT();
        CASE(MemLatchVC)
        {
            MemoryState &ms = mems[ip->idx];
            ms.adr = ASIM_FLDVC(*ip);
            ms.opn = ip[1].a;
        }
        NEXT2();
        CASE(MemLatchTC)
        {
            MemoryState &ms = mems[ip->idx];
            ms.adr = ASIM_FLDTC(*ip);
            ms.opn = ip[1].a;
        }
        NEXT2();
        CASE(MemLatchVV)
        {
            const Instr &e = ip[1];
            MemoryState &ms = mems[ip->idx];
            ms.adr = ASIM_FLDVC(*ip);
            ms.opn = ASIM_FLDVC(e);
        }
        NEXT2();

        CASE(MemWriteC)
        {
            MemoryState &ms = mems[ip->idx];
            if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx, curCycle());
            ms.temp = ip->a;
            ms.cells[ms.adr] = ip->a;
            ++stats_.mems[ip->idx].writes;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemWriteV)
        {
            MemoryState &ms = mems[ip->idx];
            if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx, curCycle());
            const int32_t d = ASIM_FLDVC(*ip);
            ms.temp = d;
            ms.cells[ms.adr] = d;
            ++stats_.mems[ip->idx].writes;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemWriteT)
        {
            MemoryState &ms = mems[ip->idx];
            if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                checkAddr(ms, ip->idx, curCycle());
            const int32_t d = ASIM_FLDTC(*ip);
            ms.temp = d;
            ms.cells[ms.adr] = d;
            ++stats_.mems[ip->idx].writes;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemOutputC)
        {
            MemoryState &ms = mems[ip->idx];
            ms.temp = ip->a;
            io->output(ms.adr, ip->a);
            ++stats_.mems[ip->idx].outputs;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemOutputV)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t d = ASIM_FLDVC(*ip);
            ms.temp = d;
            io->output(ms.adr, d);
            ++stats_.mems[ip->idx].outputs;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemOutputT)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t d = ASIM_FLDTC(*ip);
            ms.temp = d;
            io->output(ms.adr, d);
            ++stats_.mems[ip->idx].outputs;
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();

        CASE(SelTableV)
        {
            const Instr &e = ip[1];
            const int32_t sel = ASIM_FLDV(e);
            if (static_cast<uint32_t>(sel) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, sel, curCycle());
            vars[ip->idx] = ct[ip->a + sel];
        }
        NEXT2();
        CASE(SelTableT)
        {
            const Instr &e = ip[1];
            const int32_t sel = ASIM_FLDT(e);
            if (static_cast<uint32_t>(sel) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, sel, curCycle());
            vars[ip->idx] = ct[ip->a + sel];
        }
        NEXT2();
        CASE(SwitchV)
        {
            const Instr &e = ip[1];
            const int32_t sel = ASIM_FLDV(e);
            if (static_cast<uint32_t>(sel) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, sel, curCycle());
            JUMP(jt[ip->a + sel]);
        }
        CASE(SwitchT)
        {
            const Instr &e = ip[1];
            const int32_t sel = ASIM_FLDT(e);
            if (static_cast<uint32_t>(sel) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, sel, curCycle());
            JUMP(jt[ip->a + sel]);
        }

        CASE(StoreSJ)
        {
            vars[ip->idx] = s[ip->reg];
            JUMP(ip->a);
        }
        CASE(StoreCJ)
        {
            vars[ip->idx] = ip->a;
            JUMP(ip->b);
        }
        CASE(StoreFVarJ)
        {
            vars[ip->idx] = ASIM_FLDVC(*ip);
            JUMP(ip[1].a);
        }
        CASE(StoreFTempJ)
        {
            vars[ip->idx] = ASIM_FLDTC(*ip);
            JUMP(ip[1].a);
        }

        CASE(MemLatchCV)
        {
            const Instr &e = ip[1];
            MemoryState &ms = mems[ip->idx];
            ms.adr = ip->a;
            ms.opn = ASIM_FLDVC(e);
        }
        NEXT2();
        CASE(MemLatchCT)
        {
            const Instr &e = ip[1];
            MemoryState &ms = mems[ip->idx];
            ms.adr = ip->a;
            ms.opn = ASIM_FLDTC(e);
        }
        NEXT2();
        CASE(MemLatchVT)
        {
            const Instr &e = ip[1];
            MemoryState &ms = mems[ip->idx];
            ms.adr = ASIM_FLDVC(*ip);
            ms.opn = ASIM_FLDTC(e);
        }
        NEXT2();
        CASE(MemLatchTV)
        {
            const Instr &e = ip[1];
            MemoryState &ms = mems[ip->idx];
            ms.adr = ASIM_FLDTC(*ip);
            ms.opn = ASIM_FLDVC(e);
        }
        NEXT2();
        CASE(MemLatchTT)
        {
            const Instr &e = ip[1];
            MemoryState &ms = mems[ip->idx];
            ms.adr = ASIM_FLDTC(*ip);
            ms.opn = ASIM_FLDTC(e);
        }
        NEXT2();

        CASE(MemGenDataC)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t mop = land(ms.opn, 3);
            const int32_t d = ip->a;
            if (mop == mem_op::kWrite) {
                if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                    checkAddr(ms, ip->idx, curCycle());
                ms.temp = d;
                ms.cells[ms.adr] = d;
                ++stats_.mems[ip->idx].writes;
            } else { // output
                ms.temp = d;
                io->output(ms.adr, d);
                ++stats_.mems[ip->idx].outputs;
            }
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemGenDataV)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t mop = land(ms.opn, 3);
            const int32_t d = ASIM_FLDVC(*ip);
            if (mop == mem_op::kWrite) {
                if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                    checkAddr(ms, ip->idx, curCycle());
                ms.temp = d;
                ms.cells[ms.adr] = d;
                ++stats_.mems[ip->idx].writes;
            } else { // output
                ms.temp = d;
                io->output(ms.adr, d);
                ++stats_.mems[ip->idx].outputs;
            }
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemGenDataT)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t mop = land(ms.opn, 3);
            const int32_t d = ASIM_FLDTC(*ip);
            if (mop == mem_op::kWrite) {
                if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                    checkAddr(ms, ip->idx, curCycle());
                ms.temp = d;
                ms.cells[ms.adr] = d;
                ++stats_.mems[ip->idx].writes;
            } else { // output
                ms.temp = d;
                io->output(ms.adr, d);
                ++stats_.mems[ip->idx].outputs;
            }
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();

        // Fused two-operand ALUs (one handler per op x bank combo,
        // generated from the shared X-macro so the decode expressions
        // are compile-time constants in every handler).
#define ASIM_ALU_FUSED_HANDLER(OPNAME, COMBO, LEXPR, REXPR, VEXPR)     \
        CASE(AluF##OPNAME##COMBO)                                      \
        {                                                              \
            const Instr &e = ip[1];                                    \
            (void)e;                                                   \
            const int32_t l = (LEXPR);                                 \
            const int32_t r = (REXPR);                                 \
            vars[ip->idx] = (VEXPR);                                   \
        }                                                              \
        NEXT2();
        ASIM_ALU_FUSED_ALL(ASIM_ALU_FUSED_HANDLER)
#undef ASIM_ALU_FUSED_HANDLER

        // The selected case's descriptor decodes as one arithmetic
        // form, bias + field(bank[slot]), with the descriptor's reg
        // bit picking the bank (0 = vars, 1 = mem temps).  Constant
        // cases ride the vars form with a zero mask, so only
        // genuinely mixed var/temp selectors pay a data-dependent
        // bank branch.
        CASE(SelStoreV)
        {
            const Instr &e = ip[1];
            const int32_t sel = ASIM_FLDVC(e);
            if (static_cast<uint32_t>(sel) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, sel, curCycle());
            const Instr &d = ip[2 + sel];
            const int32_t src = d.reg ? mems[d.idx].temp
                                      : vars[d.idx];
            vars[ip->idx] =
                d.c + shiftField(land(src, d.a), d.b);
            NEXTN(static_cast<int64_t>(ip->b) + 2);
        }
        CASE(SelStoreT)
        {
            const Instr &e = ip[1];
            const int32_t sel = ASIM_FLDTC(e);
            if (static_cast<uint32_t>(sel) >=
                static_cast<uint32_t>(ip->b))
                selFail(*ip, sel, curCycle());
            const Instr &d = ip[2 + sel];
            const int32_t src = d.reg ? mems[d.idx].temp
                                      : vars[d.idx];
            vars[ip->idx] =
                d.c + shiftField(land(src, d.a), d.b);
            NEXTN(static_cast<int64_t>(ip->b) + 2);
        }

        CASE(TraceLatchRun)
        {
            if (tracing) {
                cycle_ = curCycle();
                traceCycle();
            }
            const Instr *q = ip + 1;
            const Instr *const qe = q + ip->b;
            do {
                const Instr &in = *q;
                MemoryState &ms = mems[in.idx];
                switch (in.op) {
                  case Op::MemLatchCC:
                    ms.adr = in.a;
                    ms.opn = in.b;
                    q += 1;
                    break;
                  case Op::MemLatchCV:
                    ms.adr = in.a;
                    ms.opn = ASIM_FLDVC(q[1]);
                    q += 2;
                    break;
                  case Op::MemLatchCT:
                    ms.adr = in.a;
                    ms.opn = ASIM_FLDTC(q[1]);
                    q += 2;
                    break;
                  case Op::MemLatchVC:
                    ms.adr = ASIM_FLDVC(in);
                    ms.opn = q[1].a;
                    q += 2;
                    break;
                  case Op::MemLatchTC:
                    ms.adr = ASIM_FLDTC(in);
                    ms.opn = q[1].a;
                    q += 2;
                    break;
                  case Op::MemLatchVV:
                    ms.adr = ASIM_FLDVC(in);
                    ms.opn = ASIM_FLDVC(q[1]);
                    q += 2;
                    break;
                  case Op::MemLatchVT:
                    ms.adr = ASIM_FLDVC(in);
                    ms.opn = ASIM_FLDTC(q[1]);
                    q += 2;
                    break;
                  case Op::MemLatchTV:
                    ms.adr = ASIM_FLDTC(in);
                    ms.opn = ASIM_FLDVC(q[1]);
                    q += 2;
                    break;
                  default: // MemLatchTT (the fuser admits no others)
                    ms.adr = ASIM_FLDTC(in);
                    ms.opn = ASIM_FLDTC(q[1]);
                    q += 2;
                    break;
                }
            } while (q < qe);
            NEXTN(1 + ip->b);
        }

        CASE(AluGenF)
        {
            const Instr &e1 = ip[1];
            const Instr &e2 = ip[2];
            const Instr &e3 = ip[3];
            const uint8_t banks = ip->reg;
            const int32_t f = (banks & 3) == 0 ? e1.a
                              : (banks & 3) == 1 ? ASIM_FLDV(e1)
                                                 : ASIM_FLDT(e1);
            const int32_t l = (banks & 12) == 0 ? e2.a
                              : (banks & 12) == 4 ? ASIM_FLDV(e2)
                                                  : ASIM_FLDT(e2);
            const int32_t r = (banks & 48) == 0 ? e3.a
                              : (banks & 48) == 16 ? ASIM_FLDV(e3)
                                                   : ASIM_FLDT(e3);
            if (badFunct(f))
                aluFault(ip->idx, f, curCycle());
            vars[ip->idx] = dologic(f, l, r, alu);
            NEXTN(4);
        }

        // The general memory ops fold read and write into one
        // branch-free path: a read stores the cell's own value back,
        // so only the rare I/O pair takes a branch. The per-cycle
        // read/write mix is data-dependent (it was the worst
        // misprediction source in the profile), while op-vs-I/O is
        // fixed per memory and predicts perfectly.
        CASE(MemGenC)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t mop = land(ms.opn, 3);
            if (mop <= mem_op::kWrite) { // read or write, merged
                if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                    checkAddr(ms, ip->idx, curCycle());
                int32_t *cell = &ms.cells[ms.adr];
                const bool wr = mop == mem_op::kWrite;
                const int32_t v = wr ? ip->a : *cell;
                *cell = v;
                const bool keep =
                    !wr && (ip->reg & kMemFlagElideTemp);
                ms.temp = keep ? ms.temp : v;
                ++(wr ? stats_.mems[ip->idx].writes
                          : stats_.mems[ip->idx].reads);
            } else if (mop == mem_op::kOutput) {
                ms.temp = ip->a;
                io->output(ms.adr, ip->a);
                ++stats_.mems[ip->idx].outputs;
            } else { // input
                ms.temp = io->input(ms.adr);
                ++stats_.mems[ip->idx].inputs;
            }
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemGenV)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t mop = land(ms.opn, 3);
            if (mop <= mem_op::kWrite) { // read or write, merged
                if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                    checkAddr(ms, ip->idx, curCycle());
                int32_t *cell = &ms.cells[ms.adr];
                const bool wr = mop == mem_op::kWrite;
                const int32_t v = wr ? ASIM_FLDVC(*ip) : *cell;
                *cell = v;
                const bool keep =
                    !wr && (ip->reg & kMemFlagElideTemp);
                ms.temp = keep ? ms.temp : v;
                ++(wr ? stats_.mems[ip->idx].writes
                          : stats_.mems[ip->idx].reads);
            } else if (mop == mem_op::kOutput) {
                const int32_t d = ASIM_FLDVC(*ip);
                ms.temp = d;
                io->output(ms.adr, d);
                ++stats_.mems[ip->idx].outputs;
            } else { // input
                ms.temp = io->input(ms.adr);
                ++stats_.mems[ip->idx].inputs;
            }
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
        CASE(MemGenT)
        {
            MemoryState &ms = mems[ip->idx];
            const int32_t mop = land(ms.opn, 3);
            if (mop <= mem_op::kWrite) { // read or write, merged
                if (!(ip->reg & kMemFlagNoCheck) && badAddr(ms))
                    checkAddr(ms, ip->idx, curCycle());
                int32_t *cell = &ms.cells[ms.adr];
                const bool wr = mop == mem_op::kWrite;
                const int32_t v = wr ? ASIM_FLDTC(*ip) : *cell;
                *cell = v;
                const bool keep =
                    !wr && (ip->reg & kMemFlagElideTemp);
                ms.temp = keep ? ms.temp : v;
                ++(wr ? stats_.mems[ip->idx].writes
                          : stats_.mems[ip->idx].reads);
            } else if (mop == mem_op::kOutput) {
                const int32_t d = ASIM_FLDTC(*ip);
                ms.temp = d;
                io->output(ms.adr, d);
                ++stats_.mems[ip->idx].outputs;
            } else { // input
                ms.temp = io->input(ms.adr);
                ++stats_.mems[ip->idx].inputs;
            }
            if (ip->reg & (kMemFlagTraceW | kMemFlagTraceR))
                memTrace(ms, *ip);
        }
        NEXT();
    } catch (...) {
        flush();
        throw;
    }

done:
    flush();
}

void
Vm::step()
{
    runCycles(1);
}

void
Vm::run(uint64_t cycles)
{
    if (cycles > 0)
        runCycles(cycles);
}

std::unique_ptr<Engine>
makeVm(const ResolvedSpec &rs, const EngineConfig &cfg,
       const CompilerOptions &opts)
{
    return makeVm(std::make_shared<const ResolvedSpec>(rs), cfg,
                  opts);
}

std::unique_ptr<Engine>
makeVm(std::shared_ptr<const ResolvedSpec> rs, const EngineConfig &cfg,
       const CompilerOptions &opts)
{
    return std::make_unique<Vm>(std::move(rs), cfg, opts);
}

std::unique_ptr<Engine>
makeVm(std::shared_ptr<const ResolvedSpec> rs, const EngineConfig &cfg,
       std::shared_ptr<const Program> program)
{
    return std::make_unique<Vm>(std::move(rs), cfg,
                                std::move(program));
}

} // namespace asim
