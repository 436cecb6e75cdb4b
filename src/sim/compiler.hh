/**
 * @file
 * Bytecode compiler: ResolvedSpec -> Program.
 */

#ifndef ASIM_SIM_COMPILER_HH
#define ASIM_SIM_COMPILER_HH

#include "analysis/resolve.hh"
#include "sim/bytecode.hh"
#include "sim/engine.hh"

namespace asim {

/**
 * Compile a resolved specification to VM bytecode.
 *
 * @param rs the resolved specification
 * @param opts optimization switches (all enabled by default; the
 *        ablation benches toggle them individually)
 * @param tracingPossible if false (no trace sink will ever be
 *        attached), trace checks are compiled out entirely
 */
Program compileProgram(const ResolvedSpec &rs,
                       const CompilerOptions &opts = {},
                       bool tracingPossible = true);

/** The order compileProgram emits the combinational phase in. */
struct CombSchedule
{
    std::vector<uint32_t> order; ///< indices into rs.comb
    uint32_t segments = 0;       ///< fault-free runs reordered
    uint32_t shapes = 0;         ///< distinct component shapes
};

/**
 * Schedule the combinational phase (docs/INTERNALS.md, "Schedule").
 * `rs.comb` is cut at every component that can fault at run time (a
 * selector whose index, or an ALU whose function, is not provably in
 * range); those keep their place. Each fault-free run between them
 * is stable-sorted by (dependency level, shape), so same-shaped
 * components emit back to back and the vm's dispatch sequence
 * repeats. A level order is topological, so every value is
 * unchanged, and the barriers keep the first fault and the state it
 * leaves exactly as in `rs.comb` order. Deterministic: it depends on
 * `rs` alone.
 */
CombSchedule scheduleComb(const ResolvedSpec &rs);

} // namespace asim

#endif // ASIM_SIM_COMPILER_HH
