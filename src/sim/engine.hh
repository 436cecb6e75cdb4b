/**
 * @file
 * Engine interface: the common face of the three execution systems.
 *
 *  - Interpreter  — the ASIM baseline: walks resolved expression
 *                   tables every cycle.
 *  - Vm           — the portable ASIM II analog: executes a compiled
 *                   bytecode program.
 *  - NativeEngine (sim/native_engine.hh) — the ASIM II pipeline
 *    proper: generated C++ compiled by the host compiler and loaded
 *    in process.
 *
 * All engines implement the identical cycle semantics (DESIGN.md §3)
 * and are cross-checked by equivalence property tests.
 */

#ifndef ASIM_SIM_ENGINE_HH
#define ASIM_SIM_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string_view>

#include "analysis/resolve.hh"
#include "lang/alu_ops.hh"
#include "sim/io.hh"
#include "sim/state.hh"
#include "sim/trace.hh"
#include "support/stats.hh"

namespace asim {

/** Options shared by all engines. */
struct EngineConfig
{
    /** ALU shift-left edge case semantics. */
    AluSemantics aluSemantics = AluSemantics::Thesis;

    /** Trace sink; nullptr disables tracing entirely. */
    TraceSink *trace = nullptr;

    /** I/O device; nullptr behaves like NullIo. */
    IoDevice *io = nullptr;
};

/** "This cursor field was not captured": the value every engine
 *  writes to EngineSnapshot::ioBytes. */
inline constexpr uint64_t kNoIoCursor = ~0ull;

/** A complete capture of an engine's execution at a cycle boundary:
 *  machine state, cycle counter, statistics, and the scripted-input
 *  cursor. Snapshots taken from one engine may be restored into any
 *  engine running the same resolved specification (the equivalence
 *  property guarantees the continuation is identical). */
struct EngineSnapshot
{
    MachineState state;
    uint64_t cycle = 0;
    SimStats stats;

    /** Scripted input *values* consumed when the snapshot was taken
     *  (IoDevice::inputsConsumed()); restore seeks the script here so
     *  the continuation reads the same inputs an uninterrupted run
     *  would. */
    uint64_t ioValues = 0;

    /** Unused: every engine leaves kNoIoCursor here. The field keeps
     *  its place in checkpoint format v1. */
    uint64_t ioBytes = kNoIoCursor;
};

/**
 * A loaded simulation ready to run.
 *
 * The resolved specification is held through a
 * `shared_ptr<const ResolvedSpec>`: engines only ever *read* it, so
 * any number of instances — including instances running concurrently
 * on different threads (sim/batch.hh) — may share one resolve. The
 * const-ref constructor copies the argument into a fresh shared spec,
 * so temporaries remain safe: `makeVm(resolveText(text))`.
 */
class Engine
{
  public:
    explicit Engine(const ResolvedSpec &rs, const EngineConfig &cfg);
    Engine(std::shared_ptr<const ResolvedSpec> rs,
           const EngineConfig &cfg);
    virtual ~Engine() = default;

    /** Re-initialize all state ("All components are initialized to
     *  zero...") and reset statistics, the cycle counter, and a
     *  seekable input script. */
    virtual void reset();

    /** Execute exactly one cycle. @throws SimError on runtime faults */
    virtual void step() = 0;

    /** Execute `cycles` cycles. Virtual so engines can advance in one
     *  batch instead of cycle by cycle. */
    virtual void run(uint64_t cycles);

    /** Capture state + cycle + statistics + input cursor for a later
     *  restore() (possibly in another engine or — serialized through
     *  sim/checkpoint.hh — another process). */
    EngineSnapshot snapshot() const;

    /** Adopt a snapshot taken from an engine running the same
     *  specification — any engine: the continuation is
     *  cycle-for-cycle identical to an uninterrupted run.
     *  @throws SimError when the snapshot's shape does not match this
     *  specification */
    virtual void restore(const EngineSnapshot &snap);

    /** Cycles executed since the last reset. */
    uint64_t cycle() const { return cycle_; }

    const MachineState &state() const
    {
        refreshState();
        return state_;
    }
    MachineState &state()
    {
        refreshState();
        return state_;
    }

    const SimStats &stats() const { return stats_; }

    const ResolvedSpec &resolved() const { return *rs_; }

    /** The shared immutable resolve this engine reads. */
    const std::shared_ptr<const ResolvedSpec> &
    resolvedShared() const
    {
        return rs_;
    }

    /** Current observable value of a component: a combinational output
     *  or a memory's output latch. @throws SimError on unknown name */
    int32_t value(std::string_view name) const;

    /** Read one cell of a memory. @throws SimError on bad name/addr */
    int32_t memCell(std::string_view mem, int64_t addr) const;

  protected:
    /** Hook for engines whose authoritative state lives elsewhere
     *  (native's generated state struct): called before every read
     *  of state_ through the public accessors (state(), value(),
     *  memCell(), snapshot()) so such engines can sync state_ lazily
     *  instead of after every run(). The other engines keep state_
     *  current and the default no-op. */
    virtual void refreshState() const {}

    /** Shape-check a snapshot against this engine's specification.
     *  @throws SimError on var/memory count or size mismatch */
    void checkSnapshotShape(const EngineSnapshot &snap) const;

    /** Emit the per-cycle trace line for the starred components. */
    void traceCycle();

    /** The dynamic-ALU-function fault (DESIGN.md §3), worded alike by
     *  every engine. @throws SimError always */
    [[noreturn]] static void aluFail(std::string_view alu, int32_t funct,
                                     uint64_t cycle);

    /** Account `n` completed cycles in stats_. Every combinational
     *  component is evaluated exactly once per cycle, so the ALU and
     *  selector counts follow from the cycle count; a cycle cut short
     *  by a fault is not counted. Advancing cycle_ stays with the
     *  caller. */
    void countCycles(uint64_t n)
    {
        stats_.cycles += n;
        stats_.aluEvals += n * aluCount_;
        stats_.selEvals += n * selCount_;
    }

    /** Immutable, potentially cross-thread-shared; never written. */
    std::shared_ptr<const ResolvedSpec> rs_;
    EngineConfig cfg_;
    MachineState state_;
    SimStats stats_;
    NullIo nullIo_;
    IoDevice *io_;
    uint64_t cycle_ = 0;

  private:
    /** ALUs and selectors in rs_->comb (see countCycles()). */
    uint64_t aluCount_ = 0;
    uint64_t selCount_ = 0;
};

/** Build the table-walking interpreter (ASIM analog). */
std::unique_ptr<Engine> makeInterpreter(const ResolvedSpec &rs,
                                        const EngineConfig &cfg = {});
std::unique_ptr<Engine>
makeInterpreter(std::shared_ptr<const ResolvedSpec> rs,
                const EngineConfig &cfg = {});

/** Options for the bytecode compiler (see sim/compiler.hh). */
struct CompilerOptions
{
    /** Inline ALUs whose function expression is constant (§4.4). */
    bool inlineConstAlu = true;

    /** Specialize memories whose operation is constant (§4.4). */
    bool specializeConstMem = true;

    /** Replace selectors whose case list is all-constant by a direct
     *  table lookup (the microcode-ROM pattern). */
    bool constSelectorTables = true;

    /** Skip the output latch for memories nobody reads (§5.4 "further
     *  optimization ... heuristics to determine which memories do not
     *  need temporary variables"). */
    bool elideUnusedTemps = false;

    /** Fuse adjacent cycle-stream instructions into superinstructions
     *  (CVC-style compile-time collapse; sim/optimizer.cc). */
    bool fuseSuperinstructions = true;

    /** Remove scratch-register stores with no reader — mostly loads
     *  orphaned by consumer-side fusion. */
    bool eliminateDeadStores = true;

    /** Drop memory bounds checks whose address expression is
     *  statically provable to stay inside the memory. */
    bool elideRedundantChecks = true;
};

/** Build the bytecode VM (portable ASIM II analog). */
std::unique_ptr<Engine> makeVm(const ResolvedSpec &rs,
                               const EngineConfig &cfg = {},
                               const CompilerOptions &opts = {});
std::unique_ptr<Engine> makeVm(std::shared_ptr<const ResolvedSpec> rs,
                               const EngineConfig &cfg = {},
                               const CompilerOptions &opts = {});

struct Program;

/** Build a bytecode VM executing a pre-compiled shared program. The
 *  program must have been compiled from `rs` with trace checks kept
 *  whenever `cfg.trace` may be set (sim/compiler.hh); batch
 *  construction uses this to compile once and share the immutable
 *  bytecode across all instances. */
std::unique_ptr<Engine> makeVm(std::shared_ptr<const ResolvedSpec> rs,
                               const EngineConfig &cfg,
                               std::shared_ptr<const Program> program);

} // namespace asim

#endif // ASIM_SIM_ENGINE_HH
