#include "sim/compiler.hh"

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <unordered_map>

#include "lang/alu_ops.hh"
#include "sim/optimizer.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace asim {

namespace {

/** Which ALU operands a given constant function actually reads —
 *  mirrors the thesis' inline expansions, which only emit the
 *  expressions they need. */
void
aluOperandNeeds(int32_t funct, bool &needL, bool &needR)
{
    switch (funct) {
      case kAluZero:
      case kAluUnused:
        needL = needR = false;
        break;
      case kAluRight:
        needL = false;
        needR = true;
        break;
      case kAluLeft:
      case kAluNot:
        needL = true;
        needR = false;
        break;
      default:
        needL = needR = true;
        break;
    }
}

/** Direct opcode for a constant ALU function; AluConst for the two
 *  that keep the generic handler (Shl depends on AluSemantics). */
Op
aluDirectOp(int32_t funct)
{
    switch (funct) {
      case kAluZero:
      case kAluUnused:
        return Op::AluZero;
      case kAluRight:
        return Op::AluRight;
      case kAluLeft:
        return Op::AluLeft;
      case kAluNot:
        return Op::AluNot;
      case kAluAdd:
        return Op::AluAdd;
      case kAluSub:
        return Op::AluSub;
      case kAluMul:
        return Op::AluMul;
      case kAluAnd:
        return Op::AluAnd;
      case kAluOr:
        return Op::AluOr;
      case kAluXor:
        return Op::AluXor;
      case kAluEq:
        return Op::AluEq;
      case kAluLt:
        return Op::AluLt;
      default:
        return Op::AluConst;
    }
}

/** Call `f` on every expression a combinational component reads. */
template <typename F>
void
forEachExpr(const CombComp &c, F &&f)
{
    if (c.kind == CompKind::Alu) {
        f(c.funct);
        f(c.left);
        f(c.right);
    } else {
        f(c.select);
        for (const auto &e : c.cases)
            f(e);
    }
}

/** True if evaluating `c` can fault at run time: a selector whose
 *  index is not provably in range, or an ALU whose function is not
 *  provably in 0..13. */
bool
canFault(const CombComp &c)
{
    if (c.kind == CompKind::Selector) {
        return !exprInRange(c.select,
                            static_cast<int64_t>(c.cases.size()));
    }
    return c.functConst ? !validAluFunction(c.functValue)
                        : !exprInRange(c.funct, kAluFunctionCount);
}

/** Feed `out` the symbols that decide the opcodes `c` lowers to:
 *  the kind and the constant ALU function (or "dynamic"), then per
 *  expression whether it has a constant part, each term's bank, and
 *  a terminator (which gives the term count). */
template <typename Out>
void
shapeSymbols(const CombComp &c, Out &&out)
{
    if (c.kind == CompKind::Alu) {
        out('A');
        out(static_cast<char>(c.functConst ? c.functValue
                                           : kAluFunctionCount));
    } else {
        out('S');
    }
    forEachExpr(c, [&](const ResolvedExpr &e) {
        out(e.constTotal != 0 ? 'c' : '-');
        for (const auto &t : e.terms)
            out(t.bank == ResolvedTerm::Bank::Var ? 'v' : 't');
        out('|');
    });
}

class Compiler
{
  public:
    Compiler(const ResolvedSpec &rs, const CompilerOptions &opts,
             bool tracingPossible)
        : rs_(rs), opts_(opts), tracing_(tracingPossible)
    {}

    Program
    run()
    {
        findUnobservedTemps();
        const CombSchedule sched = scheduleComb(rs_);
        prog_.opt.segments = sched.segments;
        prog_.opt.shapes = sched.shapes;
        known_.assign(rs_.numVarSlots, 0);
        value_.assign(rs_.numVarSlots, 0);
        for (size_t k = 0; k < sched.order.size(); ++k) {
            const CombComp &c = rs_.comb[sched.order[k]];
            hoist_ = k < sched.leading;
            if (c.kind == CompKind::Alu)
                compileAlu(c);
            else
                compileSelector(c);
        }
        compileMemories();
        return std::move(prog_);
    }

  private:
    /** True if term `t` reads a slot whose value is a compile-time
     *  constant. */
    bool
    knownTerm(const ResolvedTerm &t) const
    {
        return t.bank == ResolvedTerm::Bank::Var && known_[t.slot];
    }

    /** `e` with every term that reads a known constant slot folded
     *  into its constant part. Returns `e` itself when no term does;
     *  otherwise builds the folded copy in `tmp`. */
    const ResolvedExpr &
    fold(const ResolvedExpr &e, ResolvedExpr &tmp) const
    {
        if (std::none_of(e.terms.begin(), e.terms.end(),
                         [&](const ResolvedTerm &t) {
                             return knownTerm(t);
                         }))
            return e;
        tmp.constTotal = e.constTotal;
        tmp.terms.clear();
        for (const auto &t : e.terms) {
            if (knownTerm(t)) {
                tmp.constTotal = wadd(
                    tmp.constTotal,
                    shiftField(land(value_[t.slot], t.mask), t.shift));
            } else {
                tmp.terms.push_back(t);
            }
        }
        return tmp;
    }

    /** Record that component output `slot` is the constant `v`: later
     *  readers fold it. A constant scheduled before the first
     *  component that can fault goes to the once-per-run prologue
     *  (docs/INTERNALS.md, "Constant propagation"); any other is
     *  stored every cycle in its place. */
    void
    emitConst(uint32_t slot, int32_t v)
    {
        known_[slot] = 1;
        value_[slot] = v;
        ++prog_.opt.folded;
        if (hoist_) {
            prog_.prologue.push_back({slot, v});
            ++prog_.opt.hoisted;
        } else {
            prog_.comb.push_back({Op::StoreC, 0, slot, v, 0, 0});
        }
    }

    /** Emit code evaluating `e` into scratch register `reg`. */
    void
    compileExpr(std::vector<Instr> &code, const ResolvedExpr &e,
                uint8_t reg)
    {
        if (e.isConstant()) {
            code.push_back({Op::SetC, reg, 0, e.constTotal, 0, 0});
            return;
        }
        bool first = true;
        if (e.constTotal != 0) {
            code.push_back({Op::SetC, reg, 0, e.constTotal, 0, 0});
            first = false;
        }
        for (const auto &t : e.terms) {
            Op op;
            if (t.bank == ResolvedTerm::Bank::Var)
                op = first ? Op::LoadVar : Op::AccVar;
            else
                op = first ? Op::LoadTemp : Op::AccTemp;
            first = false;
            code.push_back({op, reg, static_cast<uint32_t>(t.slot),
                            t.mask, t.shift, 0});
        }
    }

    /** True if `e` is a pure single-field expression (one term, no
     *  constant part) — fusable with its destination. */
    static bool
    singleField(const ResolvedExpr &e)
    {
        return e.terms.size() == 1 && e.constTotal == 0;
    }

    /** Emit `vars[dst] = e`, fusing constants and single fields. */
    void
    compileStoreVar(std::vector<Instr> &code, const ResolvedExpr &e,
                    uint32_t dst)
    {
        if (e.isConstant()) {
            code.push_back({Op::StoreC, 0, dst, e.constTotal, 0, 0});
            return;
        }
        if (singleField(e)) {
            const ResolvedTerm &t = e.terms[0];
            Op op = t.bank == ResolvedTerm::Bank::Var ? Op::StoreFVar
                                                      : Op::StoreFTemp;
            code.push_back({op, 0, dst, t.mask, t.shift, t.slot});
            return;
        }
        compileExpr(code, e, 1);
        code.push_back({Op::StoreS, 1, dst, 0, 0, 0});
    }

    /** Emit a latch (`mems[m].adr/opn = e`) with the same fusions. */
    void
    compileLatch(std::vector<Instr> &code, const ResolvedExpr &e,
                 uint32_t mem, bool isAdr)
    {
        if (e.isConstant()) {
            code.push_back({isAdr ? Op::MemAdrC : Op::MemOpnC, 0, mem,
                            e.constTotal, 0, 0});
            return;
        }
        if (singleField(e)) {
            const ResolvedTerm &t = e.terms[0];
            Op op;
            if (t.bank == ResolvedTerm::Bank::Var)
                op = isAdr ? Op::MemAdrFVar : Op::MemOpnFVar;
            else
                op = isAdr ? Op::MemAdrFTemp : Op::MemOpnFTemp;
            code.push_back({op, 0, mem, t.mask, t.shift, t.slot});
            return;
        }
        compileExpr(code, e, 0);
        code.push_back(
            {isAdr ? Op::MemAdr : Op::MemOpn, 0, mem, 0, 0, 0});
    }

    void
    compileAlu(const CombComp &c)
    {
        auto &code = prog_.comb;
        const auto slot = static_cast<uint32_t>(c.slot);
        const ResolvedExpr &funct = fold(c.funct, tmp_[0]);
        const ResolvedExpr &left = fold(c.left, tmp_[1]);
        const ResolvedExpr &right = fold(c.right, tmp_[2]);

        // A dynamic function that folds to a valid constant takes the
        // constant-function path; one that folds out of range keeps
        // its run-time fault.
        if (opts_.inlineConstAlu && funct.isConstant() &&
            validAluFunction(funct.constTotal)) {
            const int32_t fv = funct.constTotal;
            bool needL = true, needR = true;
            aluOperandNeeds(fv, needL, needR);

            // Full constant folding when every needed operand is
            // constant (except Shl, whose thesis semantics depend on
            // the run-time AluSemantics configuration).
            int32_t lv = 0, rv = 0;
            bool lc = !needL || left.isConstant();
            bool rc = !needR || right.isConstant();
            if (needL && left.isConstant())
                lv = left.constTotal;
            if (needR && right.isConstant())
                rv = right.constTotal;
            if (lc && rc && fv != kAluShl) {
                emitConst(slot, dologic(fv, lv, rv));
                return;
            }

            if (needL)
                compileExpr(code, left, 1);
            if (needR)
                compileExpr(code, right, 2);
            Op direct = aluDirectOp(fv);
            code.push_back(
                {direct, 0, slot, direct == Op::AluConst ? fv : 0, 0, 0});
            return;
        }

        compileExpr(code, funct, 0);
        compileExpr(code, left, 1);
        compileExpr(code, right, 2);
        code.push_back({Op::AluGen, 0, slot, 0, 0, 0});
    }

    void
    compileSelector(const CombComp &c)
    {
        auto &code = prog_.comb;
        const auto slot = static_cast<uint32_t>(c.slot);
        const auto count = static_cast<int32_t>(c.cases.size());
        const ResolvedExpr &select = fold(c.select, tmp_[0]);

        // An index that folds to a constant inside the case list
        // selects that case at compile time; one outside it keeps its
        // run-time fault.
        if (opts_.inlineConstAlu && select.isConstant() &&
            select.constTotal >= 0 && select.constTotal < count) {
            const ResolvedExpr &e =
                fold(c.cases[select.constTotal], tmp_[1]);
            if (e.isConstant())
                emitConst(slot, e.constTotal);
            else
                compileStoreVar(code, e, slot);
            return;
        }

        prog_.selInfos.push_back({c.name, count});
        const auto selIdx =
            static_cast<int32_t>(prog_.selInfos.size() - 1);

        // Microcode-ROM pattern: all cases constant -> table lookup.
        const bool allConst =
            std::all_of(c.cases.begin(), c.cases.end(),
                        [&](const ResolvedExpr &e) {
                            return fold(e, tmp_[1]).isConstant();
                        });
        if (allConst && opts_.constSelectorTables) {
            const auto base =
                static_cast<int32_t>(prog_.constTable.size());
            for (const auto &e : c.cases)
                prog_.constTable.push_back(fold(e, tmp_[1]).constTotal);
            compileExpr(code, select, 0);
            code.push_back(
                {Op::SelTable, 0, slot, base, count, selIdx});
            return;
        }

        // General form: switch over a jump table of case blocks.
        compileExpr(code, select, 0);
        const auto base = static_cast<int32_t>(prog_.jumpTable.size());
        prog_.jumpTable.resize(base + c.cases.size());
        code.push_back({Op::Switch, 0, slot, base, count, selIdx});

        std::vector<size_t> jumpFixups;
        for (size_t i = 0; i < c.cases.size(); ++i) {
            prog_.jumpTable[base + i] =
                static_cast<uint32_t>(code.size());
            compileStoreVar(code, fold(c.cases[i], tmp_[1]), slot);
            if (i + 1 != c.cases.size()) {
                jumpFixups.push_back(code.size());
                code.push_back({Op::Jump, 0, 0, 0, 0, 0});
            }
        }
        const auto end = static_cast<int32_t>(code.size());
        for (size_t at : jumpFixups)
            code[at].a = end;
    }

    /** §5.4 heuristic: a memory's output latch can be skipped when no
     *  expression reads it, it is not traced, and its traced-access
     *  messages never print it. */
    void
    findUnobservedTemps()
    {
        observedTemps_.clear();
        auto note = [&](const ResolvedExpr &e) {
            for (const auto &t : e.terms) {
                if (t.bank == ResolvedTerm::Bank::MemTemp)
                    observedTemps_.insert(t.slot);
            }
        };
        for (const auto &c : rs_.comb)
            forEachExpr(c, note);
        for (const auto &m : rs_.mems) {
            note(m.addr);
            note(m.data);
            note(m.opn);
        }
        for (const auto &t : rs_.traceList) {
            if (t.isMem)
                observedTemps_.insert(t.slot);
        }
    }

    void
    compileMemories()
    {
        // Latch phase: address and operation of every memory.
        for (const auto &m : rs_.mems) {
            const auto idx = static_cast<uint32_t>(m.index);
            compileLatch(prog_.latch, fold(m.addr, tmp_[0]), idx, true);
            compileLatch(prog_.latch, fold(m.opn, tmp_[0]), idx, false);
        }

        // Update phase, declaration order.
        for (const auto &m : rs_.mems) {
            const auto idx = static_cast<uint32_t>(m.index);
            prog_.memInfos.push_back({m.name});

            const bool mayTrace =
                tracing_ &&
                (m.traceWrites != MemDesc::TraceMode::Never ||
                 m.traceReads != MemDesc::TraceMode::Never);
            uint8_t flags = 0;
            if (tracing_ && m.traceWrites != MemDesc::TraceMode::Never)
                flags |= kMemFlagTraceW;
            if (tracing_ && m.traceReads != MemDesc::TraceMode::Never)
                flags |= kMemFlagTraceR;
            if (opts_.elideUnusedTemps &&
                !observedTemps_.count(m.index) && !mayTrace) {
                flags |= kMemFlagElideTemp;
            }

            const ResolvedExpr &opn = fold(m.opn, tmp_[0]);
            const ResolvedExpr &data = fold(m.data, tmp_[1]);
            if (opn.isConstant() && opts_.specializeConstMem) {
                switch (land(opn.constTotal, 3)) {
                  case mem_op::kRead:
                    prog_.update.push_back(
                        {Op::MemRead, flags, idx, 0, 0, 0});
                    break;
                  case mem_op::kWrite:
                    compileExpr(prog_.update, data, 1);
                    prog_.update.push_back(
                        {Op::MemWrite, flags, idx, 0, 0, 0});
                    break;
                  case mem_op::kInput:
                    prog_.update.push_back(
                        {Op::MemInput, flags, idx, 0, 0, 0});
                    break;
                  case mem_op::kOutput:
                    compileExpr(prog_.update, data, 1);
                    prog_.update.push_back(
                        {Op::MemOutput, flags, idx, 0, 0, 0});
                    break;
                }
            } else {
                const size_t preAt = prog_.update.size();
                prog_.update.push_back(
                    {Op::MemGenPre, flags, idx, 0, 0, 0});
                compileExpr(prog_.update, data, 1);
                prog_.update.push_back(
                    {Op::MemGenData, flags, idx, 0, 0, 0});
                prog_.update[preAt].a =
                    static_cast<int32_t>(prog_.update.size());
            }
        }
    }

    const ResolvedSpec &rs_;
    CompilerOptions opts_;
    bool tracing_;
    Program prog_;
    std::set<int> observedTemps_;
    /** Per var slot: is its value a compile-time constant, and which.
     *  Only ever set when opts_.inlineConstAlu is on. */
    std::vector<uint8_t> known_;
    std::vector<int32_t> value_;
    /** The component being emitted precedes every possible fault. */
    bool hoist_ = false;
    /** Scratch for folded expressions (fold()). */
    ResolvedExpr tmp_[3];
};

} // namespace

CombSchedule
scheduleComb(const ResolvedSpec &rs)
{
    const size_t n = rs.comb.size();
    std::vector<uint32_t> level(rs.numVarSlots, 0);
    std::vector<uint32_t> levelOf(n), shapeOf(n), segmentOf(n);
    // Shapes are interned by a 64-bit FNV-1a hash of their symbols (a
    // collision would only merge two groups); the text is built once
    // per distinct shape, to rank them.
    std::unordered_map<uint64_t, uint32_t> ids;
    std::vector<std::string> texts;
    CombSchedule sched;
    uint32_t segment = 0, maxLevel = 0;
    for (size_t i = 0; i < n; ++i) {
        const CombComp &c = rs.comb[i];
        uint32_t lvl = 0; // memory temps and constants: level 0
        forEachExpr(c, [&](const ResolvedExpr &e) {
            for (const auto &t : e.terms) {
                if (t.bank == ResolvedTerm::Bank::Var)
                    lvl = std::max(lvl, level[t.slot]);
            }
        });
        levelOf[i] = level[c.slot] = ++lvl;
        maxLevel = std::max(maxLevel, lvl);

        uint64_t h = 14695981039346656037ull;
        shapeSymbols(c, [&](char sym) {
            h = (h ^ static_cast<uint8_t>(sym)) * 1099511628211ull;
        });
        const auto [it, added] =
            ids.try_emplace(h, static_cast<uint32_t>(texts.size()));
        if (added) {
            texts.emplace_back();
            shapeSymbols(c, [&](char sym) { texts.back() += sym; });
        }
        shapeOf[i] = it->second;

        // Fault-free runs get even segment ids; a barrier gets the
        // odd id between its neighbours.
        if (canFault(c)) {
            segmentOf[i] = segment + 1;
            segment += 2;
        } else {
            if (i == 0 || segmentOf[i - 1] != segment)
                ++sched.segments;
            segmentOf[i] = segment;
            if (segment == 0)
                ++sched.leading;
        }
    }

    // Rank shapes by their text, so neighbouring groups share opcode
    // prefixes as well.
    std::vector<uint32_t> byText(texts.size()), rank(texts.size());
    std::iota(byText.begin(), byText.end(), 0u);
    std::sort(byText.begin(), byText.end(), [&](uint32_t x, uint32_t y) {
        return texts[x] < texts[y];
    });
    for (uint32_t r = 0; r < byText.size(); ++r)
        rank[byText[r]] = r;
    for (uint32_t &shape : shapeOf)
        shape = rank[shape];

    // Stable sort by (segment, level, shape rank): three counting
    // sorts, least significant key first.
    sched.order.resize(n);
    std::iota(sched.order.begin(), sched.order.end(), 0u);
    std::vector<uint32_t> out(n);
    auto countingSort = [&](size_t range, auto keyOf) {
        std::vector<uint32_t> at(range + 1, 0);
        for (uint32_t i : sched.order)
            ++at[keyOf(i) + 1];
        std::partial_sum(at.begin(), at.end(), at.begin());
        for (uint32_t i : sched.order)
            out[at[keyOf(i)]++] = i;
        sched.order.swap(out);
    };
    countingSort(texts.size(), [&](uint32_t i) { return shapeOf[i]; });
    countingSort(maxLevel + 1, [&](uint32_t i) { return levelOf[i]; });
    countingSort(segment + 1, [&](uint32_t i) { return segmentOf[i]; });
    sched.shapes = static_cast<uint32_t>(texts.size());
    return sched;
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::SetC: return "setc";
      case Op::LoadVar: return "ldv";
      case Op::LoadTemp: return "ldt";
      case Op::AccVar: return "accv";
      case Op::AccTemp: return "acct";
      case Op::AluGen: return "alu.gen";
      case Op::AluConst: return "alu.const";
      case Op::AluZero: return "alu.zero";
      case Op::AluRight: return "alu.right";
      case Op::AluLeft: return "alu.left";
      case Op::AluNot: return "alu.not";
      case Op::AluAdd: return "alu.add";
      case Op::AluSub: return "alu.sub";
      case Op::AluMul: return "alu.mul";
      case Op::AluAnd: return "alu.and";
      case Op::AluOr: return "alu.or";
      case Op::AluXor: return "alu.xor";
      case Op::AluEq: return "alu.eq";
      case Op::AluLt: return "alu.lt";
      case Op::StoreS: return "st";
      case Op::StoreC: return "stc";
      case Op::StoreFVar: return "stfv";
      case Op::StoreFTemp: return "stft";
      case Op::Switch: return "switch";
      case Op::Jump: return "jmp";
      case Op::SelTable: return "seltab";
      case Op::MemAdr: return "madr";
      case Op::MemOpn: return "mopn";
      case Op::MemAdrC: return "madrc";
      case Op::MemOpnC: return "mopnc";
      case Op::MemAdrFVar: return "madrfv";
      case Op::MemAdrFTemp: return "madrft";
      case Op::MemOpnFVar: return "mopnfv";
      case Op::MemOpnFTemp: return "mopnft";
      case Op::MemRead: return "mem.rd";
      case Op::MemWrite: return "mem.wr";
      case Op::MemInput: return "mem.in";
      case Op::MemOutput: return "mem.out";
      case Op::MemGenPre: return "mem.pre";
      case Op::MemGenData: return "mem.fin";
      case Op::TraceCycle: return "trace.cycle";
      case Op::EndCycle: return "end.cycle";
      case Op::Nop: return "nop";
      case Op::Ext: return "ext";
      case Op::LoadPairCC: return "ldp.cc";
      case Op::LoadPairCV: return "ldp.cv";
      case Op::LoadPairCT: return "ldp.ct";
      case Op::LoadPairVC: return "ldp.vc";
      case Op::LoadPairVV: return "ldp.vv";
      case Op::LoadPairVT: return "ldp.vt";
      case Op::LoadPairTC: return "ldp.tc";
      case Op::LoadPairTV: return "ldp.tv";
      case Op::LoadPairTT: return "ldp.tt";
      case Op::LoadAccCV: return "lda.cv";
      case Op::LoadAccCT: return "lda.ct";
      case Op::LoadAccVV: return "lda.vv";
      case Op::LoadAccVT: return "lda.vt";
      case Op::LoadAccTV: return "lda.tv";
      case Op::LoadAccTT: return "lda.tt";
      case Op::MemLatchCC: return "mlatch.cc";
      case Op::MemLatchVC: return "mlatch.vc";
      case Op::MemLatchTC: return "mlatch.tc";
      case Op::MemLatchVV: return "mlatch.vv";
      case Op::MemWriteC: return "mem.wrc";
      case Op::MemWriteV: return "mem.wrv";
      case Op::MemWriteT: return "mem.wrt";
      case Op::MemOutputC: return "mem.outc";
      case Op::MemOutputV: return "mem.outv";
      case Op::MemOutputT: return "mem.outt";
      case Op::SelTableV: return "seltab.v";
      case Op::SelTableT: return "seltab.t";
      case Op::SwitchV: return "switch.v";
      case Op::SwitchT: return "switch.t";
      case Op::StoreSJ: return "stj";
      case Op::StoreCJ: return "stcj";
      case Op::StoreFVarJ: return "stfvj";
      case Op::StoreFTempJ: return "stftj";
      case Op::MemLatchCV: return "mlatch.cv";
      case Op::MemLatchCT: return "mlatch.ct";
      case Op::MemLatchVT: return "mlatch.vt";
      case Op::MemLatchTV: return "mlatch.tv";
      case Op::MemLatchTT: return "mlatch.tt";
      case Op::MemGenDataC: return "mem.finc";
      case Op::MemGenDataV: return "mem.finv";
      case Op::MemGenDataT: return "mem.fint";
#define ASIM_ALU_FUSED_NAME(OPNAME, COMBO, L, R, V)                    \
      case Op::AluF##OPNAME##COMBO:                                    \
        return "aluf." #OPNAME "." #COMBO;
      ASIM_ALU_FUSED_ALL(ASIM_ALU_FUSED_NAME)
#undef ASIM_ALU_FUSED_NAME
      case Op::SelStoreV: return "selst.v";
      case Op::SelStoreT: return "selst.t";
      case Op::TraceLatchRun: return "trace.latchrun";
      case Op::AluGenF: return "aluf.gen";
      case Op::MemGenC: return "mem.genc";
      case Op::MemGenV: return "mem.genv";
      case Op::MemGenT: return "mem.gent";
    }
    return "?";
}

std::string
Program::disassemble() const
{
    std::ostringstream os;
    auto dump = [&](const char *title, const std::vector<Instr> &code) {
        os << title << ":\n";
        for (size_t i = 0; i < code.size(); ++i) {
            const Instr &in = code[i];
            os << "  " << i << ": " << opName(in.op) << " r"
               << int(in.reg) << " #" << in.idx << " a=" << in.a
               << " b=" << in.b << " c=" << in.c << "\n";
        }
    };
    dump("comb", comb);
    dump("latch", latch);
    dump("update", update);
    os << "prologue:\n";
    for (const ConstWrite &w : prologue)
        os << "  #" << w.slot << " = " << w.value << "\n";
    dump("cycle (fused)", cycle);
    os << "jumpTable: " << jumpTable.size()
       << " entries, constTable: " << constTable.size()
       << " entries\n";
    os << "opt: linked=" << opt.linked << " cycle=" << cycle.size()
       << " fused=" << opt.fused << " deadStores=" << opt.deadStores
       << " checksElided=" << opt.checksElided
       << " segments=" << opt.segments << " shapes=" << opt.shapes
       << " folded=" << opt.folded << " hoisted=" << opt.hoisted
       << "\n";
    return os.str();
}

Program
compileProgram(const ResolvedSpec &rs, const CompilerOptions &opts,
               bool tracingPossible)
{
    Program prog = Compiler(rs, opts, tracingPossible).run();
    linkAndOptimize(prog, rs, opts);
    return prog;
}

} // namespace asim
