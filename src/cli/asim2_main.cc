/**
 * @file
 * `asim2c` — the ASIM II compiler: specification in, Pascal or C++
 * out (thesis Appendix A: `sim [file]` producing `simulator.p`).
 * `asim2c --help` lists every flag.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/resolve.hh"
#include "cli/options.hh"
#include "codegen/codegen.hh"
#include "sim/simulation.hh"
#include "support/tracing.hh"

int
main(int argc, char **argv)
{
    using namespace asim;

    std::string lang = "pascal";
    std::string outPath;
    std::string traceOut;
    bool specHashOnly = false;
    CodegenOptions opts;

    struct TraceGuard
    {
        ~TraceGuard() { tracing::stop(); }
    } traceGuard;

    cli::OptionTable t("asim2c", "<spec-file>");
    t.add("--lang", "pascal|cpp", "target language (default pascal)",
          [&](auto &v) {
              if (v != "pascal" && v != "cpp")
                  throw cli::BadValue{};
              lang = v;
          });
    t.text("-o", "FILE", "output path (default simulator.p or .cc)",
           &outPath);
    t.add("--no-trace", "", "generate without trace statements",
          [&](auto &) { opts.emitTrace = false; });
    t.add("--no-optimize", "", "disable constant inlining/specialization",
          [&](auto &) {
              opts.inlineConstAlu = opts.specializeConstMem = false;
          });
    t.add("--fixed-shl", "", "use repaired shift-left semantics",
          [&](auto &) { opts.aluSemantics = AluSemantics::Fixed; });
    t.flag("--spec-hash", "print the spec's identity hash and exit",
           &specHashOnly);
    t.text("--trace-out", "FILE", "write a Chrome trace JSON to FILE",
           &traceOut);
    std::vector<std::string> operands;
    if (auto rc = t.parse(argc, argv, operands))
        return *rc;
    if (operands.empty() || operands.back().empty()) {
        t.usage(std::cerr);
        return 1;
    }
    const std::string file = operands.back();
    if (outPath.empty())
        outPath = lang == "pascal" ? "simulator.p" : "simulator.cc";
    if (!traceOut.empty() && !tracing::start(traceOut)) {
        std::cerr << "cannot write trace file " << traceOut << "\n";
        return 1;
    }

    try {
        Diagnostics diag;
        if (specHashOnly) {
            SimulationOptions sopts;
            sopts.specFile = file;
            ResolvedSpec rs = Simulation::loadSpec(sopts, &diag);
            char buf[19];
            std::snprintf(buf, sizeof buf, "%016llx",
                          static_cast<unsigned long long>(
                              specIdentityHash(rs)));
            std::cout << buf << "\n";
            return 0;
        }
        std::cerr << "Reading file " << file << "\n";
        SimulationOptions sopts;
        sopts.specFile = file;
        tracing::Span loadSpan("asim2c.parse_resolve", "compile");
        ResolvedSpec rs = Simulation::loadSpec(sopts, &diag);
        loadSpan.finish();
        std::cerr << rs.spec.comps.size() << " components read.\n";
        std::cerr << "Sorting components.\n";
        for (const auto &w : diag.warnings())
            std::cerr << w << "\n";
        std::cerr << "Generating code.\n";
        tracing::Span genSpan("asim2c.codegen", "compile");
        genSpan.setArgs("\"lang\":\"" + lang + "\"");
        std::string code = lang == "pascal" ? generatePascal(rs, opts)
                                            : generateCpp(rs, opts);
        genSpan.finish();
        std::ofstream out(outPath, std::ios::binary);
        out << code;
        if (!out) {
            std::cerr << "cannot write " << outPath << "\n";
            return 1;
        }
        std::cerr << "Wrote " << outPath << "\n";
        return 0;
    } catch (const SpecError &e) {
        std::cerr << e.what() << "\n";
        std::cerr << "Error in program (no code generated).\n";
        return 1;
    }
}
