#include "analysis/resolve.hh"

#include <string_view>
#include <unordered_map>

#include "analysis/depgraph.hh"
#include "analysis/width.hh"
#include "lang/alu_ops.hh"
#include "lang/parser.hh"
#include "lang/writer.hh"
#include "support/bitops.hh"
#include "support/serialize.hh"
#include "support/tracing.hh"

namespace asim {

namespace {

/** A component's entry in the name map. */
struct NameEntry
{
    int index = 0;   ///< position in Spec::comps
    int slot = 0;    ///< var slot, or memory index for a memory
    bool isMem = false;
};

/** Context for expression resolution: name -> component. Keys are
 *  views into strings owned by the spec being resolved (alive for the
 *  whole resolve), and the map is a hash table: resolution does one
 *  lookup per reference term, which on a 100k+-component corpus spec
 *  made ordered-map string compares the dominant resolve cost. */
struct NameMap
{
    std::unordered_map<std::string_view, NameEntry> map;

    /** Var slot or memory index of each component, by position in
     *  Spec::comps. */
    std::vector<int> slotOf;
};

/**
 * Assign slots in one pass: combinational outputs get var slots,
 * memories get memory indexes, both in declaration order. Throws on a
 * duplicate definition (stricter than the thesis, which silently used
 * the last definition).
 */
NameMap
assignSlots(const std::vector<Component> &comps)
{
    NameMap names;
    names.map.reserve(comps.size());
    names.slotOf.reserve(comps.size());
    int vars = 0;
    int mems = 0;
    for (const auto &c : comps) {
        const bool isMem = c.kind == CompKind::Memory;
        const int slot = isMem ? mems++ : vars++;
        const int index = static_cast<int>(names.slotOf.size());
        if (!names.map.emplace(c.name, NameEntry{index, slot, isMem})
                 .second) {
            throw SpecError("Error. Component " + c.name +
                            " defined twice.");
        }
        names.slotOf.push_back(slot);
    }
    return names;
}

/**
 * Resolve one expression. Mirrors the thesis' `expr` procedure: scan
 * terms right-to-left, accumulating the bit position (`numbits`);
 * constants fold into `constTotal`; references become masked+shifted
 * terms. Errors on unknown components and on widths beyond 31 bits.
 */
ResolvedExpr
resolveExprImpl(const Expr &expr, const NameMap &names)
{
    ResolvedExpr out;
    out.source = expr.source;

    int numbits = 0;
    // Right-to-left accumulation, exactly like the thesis; terms are
    // stored leftmost-first (readable codegen), so fill from the back.
    size_t next = 0;
    for (const Term &t : expr.terms)
        next += t.kind == Term::Kind::Ref;
    out.terms.resize(next);
    for (auto it = expr.terms.rbegin(); it != expr.terms.rend(); ++it) {
        const Term &t = *it;
        switch (t.kind) {
          case Term::Kind::Const:
            if (t.width >= 0) {
                out.constTotal = wadd(
                    out.constTotal,
                    shiftField(land(t.value, lowMask(t.width)), numbits));
                numbits += t.width;
            } else {
                out.constTotal =
                    wadd(out.constTotal, shiftField(t.value, numbits));
                numbits = kMaxBits;
            }
            break;
          case Term::Kind::BitString:
            out.constTotal =
                wadd(out.constTotal, shiftField(t.value, numbits));
            numbits += t.width;
            break;
          case Term::Kind::Ref: {
            auto nit = names.map.find(t.ref);
            if (nit == names.map.end()) {
                throw SpecError("Error. Component <" + t.ref +
                                "> not found.");
            }
            ResolvedTerm rt;
            rt.bank = nit->second.isMem ? ResolvedTerm::Bank::MemTemp
                                        : ResolvedTerm::Bank::Var;
            rt.slot = nit->second.slot;
            if (t.from < 0) {
                rt.whole = true;
                rt.mask = -1;
                rt.from = 0;
                rt.shift = numbits;
                rt.fieldWidth = kMaxBits;
                numbits = kMaxBits;
            } else {
                int to = t.to < 0 ? t.from : t.to;
                rt.whole = false;
                rt.mask = maskBits(t.from, to);
                rt.from = t.from;
                rt.shift = numbits - t.from;
                rt.fieldWidth = to - t.from + 1;
                numbits += rt.fieldWidth;
            }
            out.terms[--next] = rt;
            break;
          }
        }
        if (numbits > kMaxBits) {
            throw SpecError("Error. Too many bits in " + expr.source +
                            ".");
        }
    }
    out.width = numbits;
    return out;
}

MemDesc::TraceMode
traceModeFor(const MemDesc &m, int minWidth, int32_t checkMask,
             int32_t checkValue)
{
    // Thesis gencode: emit a runtime-checked trace statement when the
    // operation expression is non-constant and wide enough to carry
    // the flag bit (`numberofbits`); decide statically when it is
    // constant. Writes trace when opn&5 == 5, reads when opn&9 == 8.
    if (!m.opnConst) {
        return m.opnWidth >= minWidth ? MemDesc::TraceMode::Runtime
                                      : MemDesc::TraceMode::Never;
    }
    return land(m.opnValue, checkMask) == checkValue
               ? MemDesc::TraceMode::Always
               : MemDesc::TraceMode::Never;
}

} // namespace

int
ResolvedSpec::varSlot(std::string_view name) const
{
    auto it = varSlots.find(name);
    return it == varSlots.end() ? -1 : it->second;
}

int
ResolvedSpec::memIndex(std::string_view name) const
{
    auto it = memIndexes.find(name);
    return it == memIndexes.end() ? -1 : it->second;
}

ResolvedSpec
resolve(Spec spec, Diagnostics *diag)
{
    tracing::Span span("analysis.resolve", "analysis");
    ResolvedSpec rs;
    rs.spec = std::move(spec);
    // Name-map keys view strings owned by rs.spec from here on.
    const Spec &sp = rs.spec;
    const int n = static_cast<int>(sp.comps.size());

    tracing::Span slotsSpan("analysis.resolve.slots", "analysis");
    const NameMap names = assignSlots(sp.comps);
    for (int idx = 0; idx < n; ++idx) {
        const Component &c = sp.comps[idx];
        if (c.kind == CompKind::Memory)
            rs.memIndexes.emplace(c.name, names.slotOf[idx]);
        else
            rs.varSlots.emplace(c.name, names.slotOf[idx]);
    }
    rs.numVarSlots = static_cast<int>(rs.varSlots.size());
    slotsSpan.finish();

    // checkdcl: declared but not defined / defined but not declared.
    if (diag) {
        // One name-map probe per declaration marks the components
        // it declares; definition names are unique, so an unmarked
        // component is one no declaration names.
        tracing::Span checkSpan("analysis.resolve.checkdcl", "analysis");
        std::vector<char> declared(n, 0);
        for (const auto &d : sp.decls) {
            auto it = names.map.find(d.name);
            if (it == names.map.end()) {
                diag->warn("Warning: " + d.name +
                           " declared but not defined.");
            } else {
                declared[it->second.index] = 1;
            }
        }
        for (int idx = 0; idx < n; ++idx) {
            if (!declared[idx]) {
                diag->warn("Warning: " + sp.comps[idx].name +
                           " defined but not declared.");
            }
        }
    }

    // Order the combinational network (throws on cycles).
    tracing::Span orderSpan("analysis.resolve.order", "analysis");
    std::vector<int> order = orderCombinational(sp.comps);
    orderSpan.finish();

    tracing::Span exprsSpan("analysis.resolve.exprs", "analysis");
    rs.comb.reserve(order.size());
    for (int idx : order) {
        const Component &c = sp.comps[idx];
        CombComp cc;
        cc.kind = c.kind;
        cc.name = c.name;
        cc.slot = names.slotOf[idx];
        cc.declIndex = idx;
        if (c.kind == CompKind::Alu) {
            cc.funct = resolveExprImpl(c.funct, names);
            cc.left = resolveExprImpl(c.left, names);
            cc.right = resolveExprImpl(c.right, names);
            cc.functConst = cc.funct.isConstant();
            if (cc.functConst) {
                cc.functValue = cc.funct.constTotal;
                if (!validAluFunction(cc.functValue)) {
                    throw SpecError(
                        "Error. ALU " + c.name + " has constant function "
                        + std::to_string(cc.functValue) +
                        " outside 0..13.");
                }
            }
        } else {
            cc.select = resolveExprImpl(c.select, names);
            cc.cases.reserve(c.cases.size());
            for (const auto &e : c.cases)
                cc.cases.push_back(resolveExprImpl(e, names));
        }
        rs.comb.push_back(std::move(cc));
    }

    rs.mems.reserve(rs.memIndexes.size());
    for (int idx = 0; idx < n; ++idx) {
        const Component &c = sp.comps[idx];
        if (c.kind != CompKind::Memory)
            continue;
        MemDesc m;
        m.name = c.name;
        m.index = names.slotOf[idx];
        m.declIndex = idx;
        m.addr = resolveExprImpl(c.addr, names);
        m.data = resolveExprImpl(c.data, names);
        m.opn = resolveExprImpl(c.opn, names);
        m.opnConst = m.opn.isConstant();
        if (m.opnConst)
            m.opnValue = m.opn.constTotal;
        m.opnWidth = widthOf(c.opn);
        m.size = c.memSize;
        m.init = c.init;
        if (!m.init.empty() &&
            static_cast<int64_t>(m.init.size()) != m.size) {
            throw SpecError("Error. Memory " + c.name + " declares " +
                            std::to_string(m.size) + " cells but has " +
                            std::to_string(m.init.size()) +
                            " initial values.");
        }
        m.traceWrites = traceModeFor(m, 3, 5, 5);
        m.traceReads = traceModeFor(m, 4, 9, 8);
        rs.mems.push_back(std::move(m));
    }

    // Build the per-cycle trace list from the starred declarations.
    for (const auto &d : sp.decls) {
        if (!d.traced)
            continue;
        auto it = names.map.find(d.name);
        if (it == names.map.end()) {
            if (diag) {
                diag->warn("Warning: " + d.name +
                           " traced but not defined.");
            }
            continue;
        }
        TraceItem item;
        item.name = d.name;
        item.isMem = it->second.isMem;
        item.slot = it->second.slot;
        rs.traceList.push_back(std::move(item));
    }

    return rs;
}

ResolvedSpec
resolveText(std::string_view text, Diagnostics *diag)
{
    return resolve(parseSpec(text, diag), diag);
}

uint64_t
specIdentityHash(const ResolvedSpec &rs)
{
    return fnv1a64(writeSpec(rs.spec));
}

ResolvedExpr
resolveExpr(const Expr &expr, const ResolvedSpec &rs)
{
    return resolveExprImpl(expr, assignSlots(rs.spec.comps));
}

} // namespace asim
