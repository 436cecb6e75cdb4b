/**
 * @file
 * NativeEngine — the full ASIM II pipeline (generate C++ -> host
 * compiler -> native execution, thesis §5.2) wrapped as a true Engine
 * subclass, the "native" row of the engine table (sim/simulation.hh)
 * so all three of the paper's execution systems are interchangeable
 * by name.
 *
 * The generated simulator runs in process: the engine build is a
 * shared object (CodegenOptions::emitServeLoop) loaded once per
 * NativeBuild. The engine does not compile: the Simulation facade
 * gets the build (its one native-build route) and hands it in, and
 * each engine instance owns one machine created off it through the C
 * ABI of codegen/native.hh (DESIGN.md §5):
 *
 *  - cycles: run(n) is one call into the generated cycle loop;
 *  - I/O and trace: the generated code calls back into the
 *    configured IoDevice and TraceSink, so native uses the same
 *    NullIo/ScriptIo/StreamIo and trace sinks as every other engine;
 *  - state: the machine's state struct is the authority while it
 *    runs. The first observer after a run (value(), memCell(),
 *    state(), snapshot()) copies it out into the Engine mirror; the
 *    next run copies the mirror back in, so a caller may edit
 *    state() between runs as with any engine;
 *  - snapshot() and restore() are the Engine ones plus that copy;
 *  - faults: a runtime fault raises SimError with the vm's message,
 *    the cycle counter at the faulting cycle; reset() recovers;
 *  - stats(): cycles, ALU and selector counts come from the Engine
 *    (completed cycles times the spec's ALUs and selectors); memory
 *    access counters are not collected by generated code (a restored
 *    snapshot's counters are adopted as-is).
 */

#ifndef ASIM_SIM_NATIVE_ENGINE_HH
#define ASIM_SIM_NATIVE_ENGINE_HH

#include <memory>
#include <vector>

#include "codegen/native.hh"
#include "sim/engine.hh"

namespace asim {

/** See file comment. Usually constructed by the Simulation facade as
 *  engine "native". */
class NativeEngine : public Engine
{
  public:
    /** Create this instance's machine off `build`, which any number
     *  of instances may share. @throws SimError when `build` is not
     *  an engine build, lacks trace output while `cfg` carries a
     *  trace sink, or bakes in other ALU semantics than `cfg` */
    NativeEngine(std::shared_ptr<const ResolvedSpec> rs,
                 const EngineConfig &cfg,
                 std::shared_ptr<const NativeBuild> build);
    ~NativeEngine() override;

    NativeEngine(const NativeEngine &) = delete;
    NativeEngine &operator=(const NativeEngine &) = delete;

    /** True if the host compiler needed by this engine exists. */
    static bool available() { return hostCompilerAvailable(); }

    void reset() override;
    void step() override { run(1); }
    void run(uint64_t cycles) override;
    void restore(const EngineSnapshot &snap) override;

    /** Generate/compile phase timings (Figure 5.1 rows). */
    const NativeBuild &build() const { return *build_; }

  protected:
    void refreshState() const override;

  private:
    std::shared_ptr<const NativeBuild> build_;
    NativeHost host_;
    void *machine_ = nullptr;
    mutable std::vector<int32_t> flat_; ///< state copy buffer
    mutable bool machineAhead_ = false; ///< state_ lags the machine
    mutable bool mirrorOut_ = false; ///< state_ may differ from it
};

} // namespace asim

#endif // ASIM_SIM_NATIVE_ENGINE_HH
