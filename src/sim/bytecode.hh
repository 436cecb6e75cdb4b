/**
 * @file
 * Bytecode for the compiled simulation engine.
 *
 * The compiler (sim/compiler.hh) lowers a ResolvedSpec in two stages
 * (docs/INTERNALS.md has the full ISA reference):
 *
 * 1. **Emit** — three linear per-phase streams (combinational, latch,
 *    update) of *simple* instructions, executed in order once per
 *    cycle. Field extractions are fused into single instructions
 *    (`acc += shift(value & mask)`), constants are folded, ALUs with
 *    constant functions get direct opcodes (no dologic dispatch),
 *    memories with constant operations get specialized opcodes,
 *    all-constant selectors become direct table lookups (the
 *    microcode-ROM pattern), and single-term expressions fuse with
 *    their destination (store/latch). This mirrors, in a portable
 *    form, the optimizations the thesis applied to generated Pascal
 *    (§4.4). The comb stream follows scheduleComb() (sim/compiler.hh):
 *    a topological order that groups same-shaped components. Beyond
 *    §4.4, constant component outputs propagate into their readers,
 *    and those ahead of the first possible fault leave the streams
 *    for `Program::prologue`, written once per run. The phase
 *    streams are the *canonical* lowering: the disassembler prints
 *    them, and the optimizer treats them as read-only input.
 *
 * 2. **Link + optimize** (sim/optimizer.cc) — the phases are
 *    concatenated into one `cycle` stream (comb, TraceCycle, latch,
 *    update, EndCycle) that the VM executes end to end, so a run of
 *    N cycles is a single dispatch loop with no per-phase or
 *    per-cycle call overhead. On that stream the optimizer fuses
 *    adjacent instruction pairs into *superinstructions* (CVC-style
 *    compile-time collapse of per-cycle sequences), removes dead
 *    scratch-register stores the fusion orphans, and elides memory
 *    bounds checks that a static range analysis of the address
 *    expression proves can never fire.
 *
 * Superinstructions that need more operand space than one 20-byte
 * word carry an **extension word**: the following `Instr` slot holds
 * extra operands and has `op == Op::Ext`; it is decoded by its owner
 * and never dispatched (the optimizer never fuses across a jump
 * target, so control flow cannot land on an extension word).
 *
 * Hot-path data (instruction stream, constant tables) is separated
 * from cold diagnostic data (component names for error messages and
 * trace events), which lives in side tables indexed by the `c` field.
 */

#ifndef ASIM_SIM_BYTECODE_HH
#define ASIM_SIM_BYTECODE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace asim {

/**
 * X-macro generating the fused two-operand ALU superinstructions:
 * the 8 direct binary ALU ops x 8 operand-bank combos. Each
 * expansion is `X(OPNAME, COMBO, LEXPR, REXPR, VEXPR)` where LEXPR /
 * REXPR decode the left (op word) and right (Ext word `e`) operands
 * and VEXPR computes the result from `l` and `r`. The decode
 * expressions reference macros (ASIM_FLDVC, ASIM_FLDTC) defined only
 * in sim/vm.cc; other expansion sites ignore those arguments.
 *
 * Combo order (VV..CT) and op order (Add..Lt) are load-bearing: the
 * enum below and the fusion pass in sim/optimizer.cc both index into
 * this layout arithmetically.
 */
#define ASIM_ALU_FUSED_COMBOS(X, OPNAME, VEXPR)                        \
    X(OPNAME, VV, ASIM_FLDVC(*ip), ASIM_FLDVC(e), VEXPR)               \
    X(OPNAME, VT, ASIM_FLDVC(*ip), ASIM_FLDTC(e), VEXPR)               \
    X(OPNAME, TV, ASIM_FLDTC(*ip), ASIM_FLDVC(e), VEXPR)               \
    X(OPNAME, TT, ASIM_FLDTC(*ip), ASIM_FLDTC(e), VEXPR)               \
    X(OPNAME, VC, ASIM_FLDVC(*ip), e.a, VEXPR)                         \
    X(OPNAME, TC, ASIM_FLDTC(*ip), e.a, VEXPR)                         \
    X(OPNAME, CV, ip->a, ASIM_FLDVC(e), VEXPR)                         \
    X(OPNAME, CT, ip->a, ASIM_FLDTC(e), VEXPR)

#define ASIM_ALU_FUSED_ALL(X)                                          \
    ASIM_ALU_FUSED_COMBOS(X, Add, wadd(l, r))                          \
    ASIM_ALU_FUSED_COMBOS(X, Sub, wsub(l, r))                          \
    ASIM_ALU_FUSED_COMBOS(X, Mul, wmul(l, r))                          \
    ASIM_ALU_FUSED_COMBOS(X, And, land(l, r))                          \
    ASIM_ALU_FUSED_COMBOS(X, Or, wsub(wadd(l, r), land(l, r)))         \
    ASIM_ALU_FUSED_COMBOS(X, Xor,                                      \
                          wsub(wadd(l, r), wmul(land(l, r), 2)))       \
    ASIM_ALU_FUSED_COMBOS(X, Eq, (l == r ? 1 : 0))                     \
    ASIM_ALU_FUSED_COMBOS(X, Lt, (l < r ? 1 : 0))

/** VM opcodes. Scratch registers s0..s3 hold expression values.
 *
 *  The computed-goto dispatch table in sim/vm.cc lists handlers in
 *  exactly this order — keep the two in sync (a static_assert over
 *  kOpCount guards the table length). */
enum class Op : uint8_t
{
    // Expression evaluation into a scratch register.
    SetC,       ///< s[reg] = a
    LoadVar,    ///< s[reg] = shift(vars[idx] & a, b)
    LoadTemp,   ///< s[reg] = shift(mems[idx].temp & a, b)
    AccVar,     ///< s[reg] += shift(vars[idx] & a, b)
    AccTemp,    ///< s[reg] += shift(mems[idx].temp & a, b)

    // ALU evaluation (operands in s1/s2 unless noted).
    AluGen,     ///< vars[idx] = dologic(s0, s1, s2)
    AluConst,   ///< vars[idx] = dologic(a, s1, s2)
    AluZero,    ///< vars[idx] = 0
    AluRight,   ///< vars[idx] = s2
    AluLeft,    ///< vars[idx] = s1
    AluNot,     ///< vars[idx] = mask - s1
    AluAdd,     ///< vars[idx] = s1 + s2
    AluSub,     ///< vars[idx] = s1 - s2
    AluMul,     ///< vars[idx] = s1 * s2
    AluAnd,     ///< vars[idx] = s1 & s2
    AluOr,      ///< vars[idx] = s1 | s2
    AluXor,     ///< vars[idx] = s1 ^ s2
    AluEq,      ///< vars[idx] = s1 == s2
    AluLt,      ///< vars[idx] = s1 < s2

    // Stores (selector case results, folded components).
    StoreS,     ///< vars[idx] = s[reg]
    StoreC,     ///< vars[idx] = a
    StoreFVar,  ///< vars[idx] = shift(vars[c] & a, b)
    StoreFTemp, ///< vars[idx] = shift(mems[c].temp & a, b)

    // Selectors.
    Switch,     ///< jump via jumpTable[a + s0]; b = count, c = selInfo
    Jump,       ///< pc = a
    SelTable,   ///< vars[idx] = constTable[a + s0]; b = count,
                ///< c = selInfo

    // Memory latch phase.
    MemAdr,     ///< mems[idx].adr = s0
    MemOpn,     ///< mems[idx].opn = s0
    MemAdrC,    ///< mems[idx].adr = a
    MemOpnC,    ///< mems[idx].opn = a
    MemAdrFVar, ///< mems[idx].adr = shift(vars[c] & a, b)
    MemAdrFTemp,///< mems[idx].adr = shift(mems[c].temp & a, b)
    MemOpnFVar, ///< mems[idx].opn = shift(vars[c] & a, b)
    MemOpnFTemp,///< mems[idx].opn = shift(mems[c].temp & a, b)

    // Memory update phase. `reg` carries VmMemFlags.
    MemRead,    ///< specialized operation 0
    MemWrite,   ///< specialized operation 1, data in s1
    MemInput,   ///< specialized operation 2
    MemOutput,  ///< specialized operation 3, data in s1
    MemGenPre,  ///< generic: handle op 0/2 then jump a; else fall thru
    MemGenData, ///< generic: finish op 1/3 with data in s1

    // ---- cycle-stream structure (sim/optimizer.cc emits these) ----
    TraceCycle, ///< per-cycle trace point (between comb and latch)
    EndCycle,   ///< ++cycle; loop to pc 0 or end the run
    Nop,        ///< dead-store placeholder; removed by compaction
    Ext,        ///< extension word of the preceding superinstruction

    // ---- superinstructions: fused scratch-load pairs (one Ext) ----
    // Two independent simple loads: side 1 decoded from the op word,
    // side 2 from the Ext word; each side is C (s[reg] = a),
    // V (s[reg] = shift(vars[idx] & a, b)) or T (same from
    // mems[idx].temp).
    LoadPairCC, LoadPairCV, LoadPairCT,
    LoadPairVC, LoadPairVV, LoadPairVT,
    LoadPairTC, LoadPairTV, LoadPairTT,
    // Two-term accumulation into one register (reg of the op word):
    // s[reg] = side1 + side2, second side always a field.
    LoadAccCV, LoadAccCT,
    LoadAccVV, LoadAccVT,
    LoadAccTV, LoadAccTT,

    // ---- superinstructions: fused memory latches ----
    MemLatchCC, ///< mems[idx].adr = a; mems[idx].opn = b
    MemLatchVC, ///< adr = shift(vars[c] & a, b); opn = ext.a
    MemLatchTC, ///< adr = shift(mems[c].temp & a, b); opn = ext.a
    MemLatchVV, ///< adr = field of vars[c]; opn = field of
                ///< vars[ext.c] (ext.a/ext.b mask/shift)

    // ---- superinstructions: memory update with inline data ----
    MemWriteC,  ///< write with data = a
    MemWriteV,  ///< write with data = shift(vars[c] & a, b)
    MemWriteT,  ///< write with data = shift(mems[c].temp & a, b)
    MemOutputC, ///< output with data = a
    MemOutputV, ///< output with data = shift(vars[c] & a, b)
    MemOutputT, ///< output with data = shift(mems[c].temp & a, b)

    // ---- superinstructions: selectors with inline select field ----
    // Op word = the Switch/SelTable operands; Ext word = the select
    // field (idx/a/b as slot/mask/shift).
    SelTableV, SelTableT,
    SwitchV, SwitchT,

    // ---- superinstructions: selector-case store + exit jump ----
    StoreSJ,    ///< vars[idx] = s[reg]; pc = a
    StoreCJ,    ///< vars[idx] = a; pc = b
    StoreFVarJ, ///< vars[idx] = shift(vars[c] & a, b); pc = ext.a
    StoreFTempJ,///< vars[idx] = shift(mems[c].temp & a, b); pc = ext.a

    // ---- superinstructions: remaining memory-latch bank combos ----
    // adr side in the op word, opn side in the Ext word, each a
    // constant (a) or a field (a=mask, b=shift, c=slot).
    MemLatchCV, MemLatchCT,
    MemLatchVT, MemLatchTV, MemLatchTT,

    // ---- superinstructions: generic memory update, inline data ----
    // MemGenData with the single-term data expression folded in
    // (const in a, or field a=mask, b=shift, c=slot).
    MemGenDataC, MemGenDataV, MemGenDataT,

    // ---- superinstructions: fused two-operand ALUs ----
    // One dispatch for `vars[idx] = op(left, right)` where both
    // operands are simple (constant or single field). Left operand
    // in the op word (const in a, or field a=mask, b=shift, c=slot),
    // right operand in the Ext word (same layout). Generated by the
    // ASIM_ALU_FUSED_ALL X-macro: 8 direct ops x 8 bank combos, laid
    // out combo-major so sim/optimizer.cc can compute
    // `AluFAddVV + op*8 + combo`.
#define ASIM_ALU_FUSED_ENUM(OPNAME, COMBO, L, R, V) \
    AluF##OPNAME##COMBO,
    ASIM_ALU_FUSED_ALL(ASIM_ALU_FUSED_ENUM)
#undef ASIM_ALU_FUSED_ENUM

    // ---- superinstructions: whole selector as a descriptor table ----
    // A Switch whose every case body is a single simple store to the
    // same variable collapses into one dispatch: the select value
    // indexes an inline table of value descriptors, replacing the
    // data-dependent indirect jump (hard to predict) with a data
    // load. Layout: op word (idx = dst, b = case count, c = selInfo)
    // followed by one Ext select-field word (a = mask, b = shift,
    // c = slot) and then one Ext descriptor word per case,
    // normalised to the single arithmetic form
    //   value = d.c + field(bank[d.idx], d.a, d.b)
    // where d.reg picks the bank (0 = vars, 1 = mem temps) and a
    // constant case carries a zero mask with the constant in d.c.
    // The op word's reg flag is 1 when no case reads a temp (kept
    // for inspection; the handler branches per descriptor).
    SelStoreV,  ///< select field reads vars[slot]
    SelStoreT,  ///< select field reads mems[slot].temp

    // ---- superinstructions: whole latch phase in one dispatch ----
    // Replaces the TraceCycle word when the latch phase is a
    // contiguous run of MemLatch* words: performs the trace point,
    // then interprets the next `b` stream words (which stay in place,
    // in their normal encodings) with an inline loop instead of `b`
    // dispatches. The per-word branch sequence is fixed at compile
    // time, so it predicts perfectly in steady state.
    TraceLatchRun,

    // ---- superinstructions: generic ALU with inline operands ----
    // dologic(funct, left, right) where all three sides are simple.
    // reg packs the three banks (2 bits each, funct/left/right, 0/1/2
    // for C/V/T); three Ext words follow in original simple-load
    // layout (const in a, or field idx = slot, a = mask, b = shift).
    AluGenF,

    // ---- superinstructions: whole generic memory op, inline data ----
    // MemGenPre and an adjacent inline-data MemGenData merged: one
    // dispatch handles read/write/input/output off the latched
    // operation. Data operands as in MemGenDataC/V/T.
    MemGenC, MemGenV, MemGenT,
};

/** Number of opcodes (dispatch-table size in sim/vm.cc). */
inline constexpr size_t kOpCount =
    static_cast<size_t>(Op::MemGenT) + 1;

/** Per-memory flag bits carried in Instr::reg for memory opcodes. */
enum VmMemFlags : uint8_t
{
    kMemFlagTraceW = 1,    ///< trace writes (check or uncond.)
    kMemFlagTraceR = 2,    ///< trace reads
    kMemFlagElideTemp = 4, ///< §5.4: skip the unobserved latch
    kMemFlagNoCheck = 8,   ///< address statically proven in range
};

/** One VM instruction (20 bytes). `idx` and `c` hold var slots and
 *  memory indexes, so both are 32 bits wide: a design may have any
 *  number of components. */
struct Instr
{
    Op op = Op::SetC;
    uint8_t reg = 0;
    uint32_t idx = 0;
    int32_t a = 0;
    int32_t b = 0;
    int32_t c = 0;
};
static_assert(sizeof(Instr) == 20, "Instr layout (docs/INTERNALS.md)");

/** Selector cold data (bounds diagnostics). */
struct SelInfo
{
    std::string name;
    int32_t caseCount = 0;
};

/** Per-memory cold data (names for traces and errors). */
struct VmMemInfo
{
    std::string name;
};

/** One constant component output the vm writes once per run. */
struct ConstWrite
{
    uint32_t slot = 0;
    int32_t value = 0;
};

/** A compiled program. */
struct Program
{
    /** Canonical per-phase streams (the emit stage's output; used by
     *  the disassembler, tests, and the optimizer as input). */
    std::vector<Instr> comb;
    std::vector<Instr> latch;
    std::vector<Instr> update;

    /** The linked + optimized whole-cycle stream the VM executes:
     *  comb', TraceCycle, latch', update', EndCycle. Jump targets and
     *  `cycleJumpTable` entries are indices into this stream. */
    std::vector<Instr> cycle;
    std::vector<uint32_t> cycleJumpTable;

    /** Constant component outputs scheduled before the first
     *  component that can fault: the VM writes them on entry to every
     *  run instead of once per cycle (docs/INTERNALS.md, "Constant
     *  propagation"). No instruction reads these slots. */
    std::vector<ConstWrite> prologue;

    /** Jump table of the canonical `comb` stream (indices into
     *  `comb`; kept for inspection — the VM uses cycleJumpTable). */
    std::vector<uint32_t> jumpTable;
    std::vector<int32_t> constTable;
    std::vector<SelInfo> selInfos;
    std::vector<VmMemInfo> memInfos;

    /** What the link/optimize stage did (see `--dump-bytecode`). */
    struct OptSummary
    {
        uint32_t linked = 0;       ///< instrs entering the optimizer
        uint32_t fused = 0;        ///< superinstructions formed
        uint32_t deadStores = 0;   ///< dead scratch stores removed
        uint32_t checksElided = 0; ///< memories with bounds checks
                                   ///< statically discharged
        uint32_t segments = 0;     ///< fault-free comb runs the
                                   ///< schedule reordered
        uint32_t shapes = 0;       ///< distinct comb component shapes
        uint32_t folded = 0;       ///< comb outputs known at compile
                                   ///< time
        uint32_t hoisted = 0;      ///< of those, moved to `prologue`
    };
    OptSummary opt;

    size_t
    totalInstructions() const
    {
        return comb.size() + latch.size() + update.size();
    }

    /** Human-readable disassembly (debugging, tests, tools): the
     *  canonical phase streams followed by the optimized cycle
     *  stream and an optimization summary. */
    std::string disassemble() const;
};

/** Name of an opcode (used by the disassembler). */
const char *opName(Op op);

/** True if `op` carries an extension word (the following slot). */
bool opHasExt(Op op);

} // namespace asim

#endif // ASIM_SIM_BYTECODE_HH
