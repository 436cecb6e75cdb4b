/**
 * @file
 * `asim2c` — the ASIM II compiler: specification in, Pascal or C++
 * out (thesis Appendix A: `sim [file]` producing `simulator.p`).
 *
 * Usage: asim2c [options] <spec-file>
 *   --lang=pascal|cpp    target language (default pascal)
 *   -o <file>            output path (default simulator.p / .cc)
 *   --no-trace           generate without trace statements
 *   --no-optimize        disable constant inlining/specialization
 *   --fixed-shl          repaired shift-left semantics
 *   --spec-hash          print the specification's identity hash
 *                        (the checkpoint/build-cache key) and exit
 *   --trace-out=FILE     write a Chrome trace_event JSON profile of
 *                        this compile (parse/resolve/codegen spans)
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/resolve.hh"
#include "codegen/codegen.hh"
#include "sim/simulation.hh"
#include "support/tracing.hh"

int
main(int argc, char **argv)
{
    using namespace asim;

    std::string file;
    std::string lang = "pascal";
    std::string outPath;
    std::string traceOut;
    bool specHashOnly = false;
    CodegenOptions opts;

    struct TraceGuard
    {
        ~TraceGuard() { tracing::stop(); }
    } traceGuard;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--lang=", 0) == 0) {
            lang = arg.substr(7);
        } else if (arg == "-o" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (arg == "--no-trace") {
            opts.emitTrace = false;
        } else if (arg == "--no-optimize") {
            opts.inlineConstAlu = false;
            opts.specializeConstMem = false;
        } else if (arg == "--fixed-shl") {
            opts.aluSemantics = AluSemantics::Fixed;
        } else if (arg == "--spec-hash") {
            specHashOnly = true;
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            traceOut = arg.substr(12);
        } else if (arg == "--help" || arg == "-h") {
            std::cerr << "usage: asim2c [--lang=pascal|cpp] [-o file]\n"
                      << "              [--no-trace] [--no-optimize]\n"
                      << "              [--fixed-shl]\n"
                      << "              [--spec-hash] "
                         "[--trace-out=file] <spec-file>\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option " << arg << "\n";
            return 1;
        } else {
            file = arg;
        }
    }
    if (file.empty()) {
        std::cerr << "usage: asim2c [options] <spec-file>\n";
        return 1;
    }
    if (lang != "pascal" && lang != "cpp") {
        std::cerr << "unknown language " << lang << "\n";
        return 1;
    }
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
