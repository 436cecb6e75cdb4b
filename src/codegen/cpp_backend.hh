/**
 * @file
 * C++ backend.
 *
 * Emits a dependency-free C++ translation unit with the same
 * structure as the thesis' generated Pascal (a variable per
 * combinational output; temp/adr/opn latches and a cell array per
 * memory; land/dologic/sinput/soutput helpers; the per-cycle body in
 * one flat docycle() function). The machine state lives in one
 * `State` struct whose members keep those names, and docycle() is a
 * member of `Machine : State`, so the emitted expressions read exactly
 * like the thesis' globals. Output formats (trace lines, memory-mapped
 * I/O) match the library engines byte-for-byte so the three execution
 * systems can be compared directly.
 *
 * One cycle body serves two entry shells, which differ only in how
 * the I/O, trace and fault hooks are defined:
 *
 *  - the standalone program (default): `simulator [cycles]` on stdio,
 *    the paper's ASIM II artifact;
 *  - with CodegenOptions::emitServeLoop, the in-process engine ABI
 *    (codegen/native.hh NativeAbi): `extern "C"` create/destroy/
 *    reset/run/state-copy entry points, I/O and trace through a host
 *    callback table, and runtime faults returned from run() with the
 *    in-process engines' messages. Built as a shared object and
 *    loaded by the native engine (sim/native_engine.hh).
 *
 * Compile the output with `g++ -O2 -fwrapv` (plus `-fPIC -shared` for
 * the engine shell) — the library's value model is wrapping 32-bit
 * two's-complement arithmetic, and -fwrapv makes the emitted
 * `+`/`-`/`*` expressions implement it exactly.
 */

#ifndef ASIM_CODEGEN_CPP_BACKEND_HH
#define ASIM_CODEGEN_CPP_BACKEND_HH

#include "codegen/codegen.hh"

namespace asim {

/** Implementation class behind generateCpp(). */
class CppBackend
{
  public:
    CppBackend(const ResolvedSpec &rs, const CodegenOptions &opts);

    /** Generate the complete translation unit. */
    std::string generate();

  private:
    std::string expr(const ResolvedExpr &e) const;
    bool engineShell() const;
    std::string dologicCall(const std::string &funct, const std::string &l,
                            const std::string &r,
                            const CombComp &c) const;
    void emitHeader();
    void emitState();
    void emitMachine();
    void emitHelpers();
    void emitStandaloneHooks();
    void emitEngineHooks();
    void emitInitValues();
    void emitAlu(const CombComp &c);
    void emitSelector(const CombComp &c);
    void emitTraceLine();
    void emitMemoryLatches();
    void emitMemoryUpdate(const MemDesc &m);
    void emitMemoryTraces(const MemDesc &m);
    void emitDoCycle();
    void emitStateDump();
    void emitEngineAbi();
    void emitMain();

    const ResolvedSpec &rs_;
    CodegenOptions opts_;
    CodegenContext ctx_;
    std::string out_;

    void ln(const std::string &s) { out_ += s; out_ += '\n'; }
    void raw(const char *text) { out_ += text; }
};

} // namespace asim

#endif // ASIM_CODEGEN_CPP_BACKEND_HH
