/**
 * @file
 * Fault injection (thesis §2.3.2): three fixed bit-level policies.
 *
 * The thesis names fault injection — "inserting a fault in the
 * specification to cause errors (by design) in the simulation run" —
 * as a core application of a CHDL simulator. This module provides the
 * injection *policies* and the shared fault grammar; the campaign
 * driver that fans injections out at scale lives in
 * analysis/campaign.hh.
 *
 * A FaultPolicy is one bit-level perturbation ("set0", "set1",
 * "toggle") usable at two sites:
 *
 *  - **spec splice** (permanent stuck-at): the faulted component is
 *    renamed and an ALU is spliced in under the original name that
 *    forces/flips one output bit. Every consumer transparently
 *    observes the faulty value; timing is unchanged for combinational
 *    victims (the splice is itself combinational).
 *  - **state injection** (transient upset): one word of a saved
 *    EngineSnapshot — a memory cell or output latch — is perturbed at
 *    a cycle boundary (an SEU-style bit flip). Combinational outputs
 *    are recomputed every cycle, so only memory state is a valid
 *    target.
 *
 * The policies are one fixed table (kFaultPolicies), one row per
 * policy holding its name and splice ALU op; campaigns, the CLI and
 * batch manifests all name policies through it.
 *
 * The textual fault grammar shared by `asim-run --inject=`, the
 * batch-manifest `fault=` key, and campaign reports is
 *
 *     component[cell]:bit:mode[@cycle]
 *
 * where `[cell]` (optional) addresses one memory cell, `bit` is the
 * target bit (0..30), `mode` names a policy, and `@cycle`
 * (optional) selects transient state injection at that cycle boundary
 * instead of a permanent spec splice. parseFaultSite() /
 * validateFaultSite() are the single parse/validation path, so a bad
 * component, bit, cell, or mode produces the same SpecError text
 * everywhere.
 */

#ifndef ASIM_ANALYSIS_FAULT_HH
#define ASIM_ANALYSIS_FAULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "lang/ast.hh"

namespace asim {

struct ResolvedSpec;

/** One bit-level fault policy; see the file comment for the two
 *  injection sites. */
struct FaultPolicy
{
    /** The `mode` of the fault grammar ("set0", "set1", "toggle"). */
    const char *name;

    /** The ALU function the spec splice wires in (AND, OR or XOR);
     *  it also selects the state-injection perturbation. */
    int32_t spliceAluOp;
};

/** The three policies, sorted by name: "set0" (stuck-at-0, AND),
 *  "set1" (stuck-at-1, OR) and "toggle" (bit flip, XOR). */
extern const std::array<FaultPolicy, 3> kFaultPolicies;

/** Look up a policy by name. @throws SpecError naming the policies
 *  when `name` is unknown */
const FaultPolicy &faultPolicy(std::string_view name);

/** State-injection site: return `value` with bit `bit` perturbed
 *  under `policy`. `bit` must be in 0..30 (31-bit words,
 *  support/bitops.hh). */
int32_t applyFault(const FaultPolicy &policy, int32_t value, int bit);

/**
 * Spec-splice site: return a copy of `spec` where bit `bit` of
 * component `comp` is permanently perturbed under `policy`.
 *
 * The victim is renamed `<comp>FAULTED` and an ALU is spliced in
 * under the original name computing `shadow <op> mask`. For a
 * memory victim the splice observes the output latch, adding one
 * combinational stage but no extra cycle of delay.
 *
 * @throws SpecError if `comp` does not exist, `bit` is out of
 *         range, or `<comp>FAULTED` already exists
 */
Spec spliceFault(const FaultPolicy &policy, const Spec &spec,
                 const std::string &comp, int bit);

/** One parsed fault: where, which bit, which policy, and when. */
struct FaultSite
{
    std::string component;

    /** Memory cell address; -1 targets the whole component (a
     *  combinational output for splices, a memory's output latch for
     *  state injection). */
    int64_t cell = -1;

    int bit = 0;

    /** FaultPolicy name. */
    std::string mode = "toggle";

    /** State-injection cycle boundary; meaningful when atCycle. The
     *  fault perturbs the state *before* the first cycle executed at
     *  or after this boundary. */
    uint64_t cycle = 0;

    /** true = transient state injection at `cycle`; false = permanent
     *  spec splice. */
    bool atCycle = false;
};

/**
 * Parse `component[cell]:bit:mode[@cycle]` (see file comment).
 * Validates only what needs no specification: the grammar and the bit
 * range. @throws SpecError with the shared error texts
 */
FaultSite parseFaultSite(const std::string &text);

/** Render a FaultSite back into the canonical grammar (the form
 *  parseFaultSite accepts; used for labels and campaign reports). */
std::string formatFaultSite(const FaultSite &site);

/**
 * Validate a parsed fault against a resolved specification: the
 * component exists, the mode names a policy, cell faults address a
 * real memory cell, and state injection (`@cycle`) targets memory
 * (combinational outputs are recomputed every cycle and hold no
 * state). @throws SpecError with the shared error texts
 */
void validateFaultSite(const ResolvedSpec &rs, const FaultSite &site);

} // namespace asim

#endif // ASIM_ANALYSIS_FAULT_HH
