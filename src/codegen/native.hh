/**
 * @file
 * Native pipeline driver: generate C++ -> host compiler -> run.
 *
 * This is the full ASIM II workflow of the thesis (§5.2): code
 * generation, a host-compiler invocation, and a fast native simulation
 * run. Figure 5.1's three ASIM II rows (generate / compile / simulate)
 * map onto NativeResult's three duration fields.
 */

#ifndef ASIM_CODEGEN_NATIVE_HH
#define ASIM_CODEGEN_NATIVE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "codegen/codegen.hh"

namespace asim {

/** The host callback table an engine build calls back through: the
 *  generated `asim_host`, field for field. `ctx` is passed back as
 *  each callback's first argument. */
struct NativeHost
{
    void *ctx = nullptr;
    int32_t (*input)(void *ctx, int32_t address) = nullptr;
    void (*output)(void *ctx, int32_t address, int32_t data) = nullptr;
    void (*beginCycle)(void *ctx, long long cycle) = nullptr;
    void (*value)(void *ctx, const char *name, int32_t v) = nullptr;
    void (*endCycle)(void *ctx) = nullptr;
    void (*memWrite)(void *ctx, const char *mem, int32_t adr,
                     int32_t v) = nullptr;
    void (*memRead)(void *ctx, const char *mem, int32_t adr,
                    int32_t v) = nullptr;
};

/** The `extern "C"` entry points of a loaded engine build
 *  (CodegenOptions::emitServeLoop). State copies use the flat layout
 *  of the generated `State`: every combinational slot in order, then
 *  per memory temp, adr, opn and its cells. */
struct NativeAbi
{
    /** A fresh machine at its initial values; `host` must outlive
     *  it. */
    void *(*create)(const NativeHost *host) = nullptr;
    void (*destroy)(void *machine) = nullptr;
    /** Back to the initial values. */
    void (*reset)(void *machine) = nullptr;
    /** Run `n` cycles starting at `*cycle`, advancing it per
     *  completed cycle. Returns nullptr, or a fault message (owned by
     *  the machine) with `*cycle` at the faulting cycle. */
    const char *(*run)(void *machine, uint64_t *cycle, uint64_t n) =
        nullptr;
    void (*getState)(const void *machine, int32_t *out) = nullptr;
    void (*setState)(void *machine, const int32_t *in) = nullptr;
};

/** Number of int32 words in the flat state layout of NativeAbi. */
size_t nativeStateWords(const ResolvedSpec &rs);

/** A generated-and-compiled simulator on disk, reusable across runs
 *  (the expensive half of the pipeline, done once) — and, via
 *  compileSpecShared(), shareable read-only across a whole batch of
 *  engine instances that each create their own machine off one loaded
 *  engine build. */
struct NativeBuild
{
    double generateSeconds = 0; ///< spec -> C++ text
    double compileSeconds = 0;  ///< host g++ invocation
    std::string workDir;        ///< artifact directory
    std::string generatedPath;  ///< the .cc file on disk
    /** The standalone program, or an engine build's shared object. */
    std::string binaryPath;

    /** True when compileSpec created workDir itself (fresh temp
     *  dir); whoever owns the build removes it then. */
    bool ownsWorkDir = false;

    /// @{ Codegen facts an engine must agree with at run time.
    bool emitsTrace = false; ///< CodegenOptions::emitTrace
    AluSemantics aluSemantics = AluSemantics::Thesis; ///< baked in
    /// @}

    /// @{ Engine builds only: the dlopen handle (closed with the last
    /// copy) and the entry points resolved from it.
    std::shared_ptr<void> library;
    NativeAbi abi;
    /// @}
};

/** One execution of a built simulator (the cheap half). */
struct NativeRun
{
    double runSeconds = 0; ///< whole process wall time
    double simSeconds = 0; ///< the loop itself (SIM_NS on stderr)
    int exitCode = 0;      ///< raw wait status from std::system
    std::string stdoutText;
    std::string stderrText;
};

/** Outcome of one generate+compile+run pipeline execution. */
struct NativeResult
{
    double generateSeconds = 0; ///< spec -> C++ text
    double compileSeconds = 0;  ///< host g++ invocation
    double runSeconds = 0;      ///< whole process wall time
    double simSeconds = 0;      ///< the loop itself (SIM_NS on stderr)
    int exitCode = 0;
    std::string stdoutText;     ///< trace + memory-mapped output
    std::string generatedPath;  ///< the .cc file left on disk
    std::string binaryPath;
};

/** True if a host C++ compiler is available. */
bool hostCompilerAvailable();

/**
 * Generate C++ for `rs` and compile it with the host compiler; an
 * engine build (opts.emitServeLoop) is compiled as a shared object
 * and loaded. Every call is one `native.compile` span and, with
 * timing on, one `native.compile_ns` sample, whichever route
 * (cache, workDir, direct) asked for it.
 *
 * @param workDir directory for artifacts; empty = fresh temp dir
 *        (recorded in the returned NativeBuild::workDir — the caller
 *        owns cleanup)
 * @throws SimError if no compiler exists, compilation fails, or an
 *         engine build does not load
 */
NativeBuild compileSpec(const ResolvedSpec &rs,
                        const CodegenOptions &opts = {},
                        std::string workDir = "");

/**
 * compileSpec() wrapped for sharing: the returned pointer owns the
 * artifacts — when the last holder drops it, a temp-created workDir
 * is removed. A batch of NativeEngine instances holds one of these
 * and creates one machine each off the single loaded engine build.
 */
std::shared_ptr<const NativeBuild>
compileSpecShared(const ResolvedSpec &rs, const CodegenOptions &opts = {},
                  std::string workDir = "");

/**
 * compileSpecShared() behind a process-wide build cache keyed by
 * (spec identity hash, codegen options): repeated construction of
 * native engines over the same machine — heterogeneous batch
 * manifests with repeated rows in particular — share one
 * generate+compile instead of paying it per job. The cache holds
 * weak references plus a small ring of strong ones, so builds stay
 * alive across back-to-back jobs but the cache never pins unbounded
 * disk. Thread-safe. Always compiles into a cache-owned temp dir;
 * callers that need a specific workDir use compileSpecShared().
 *
 * @param specHash analysis/resolve.hh specIdentityHash(rs); taken as
 *        a parameter so the caller can reuse its own computation
 */
std::shared_ptr<const NativeBuild>
compileSpecCached(const ResolvedSpec &rs, const CodegenOptions &opts,
                  uint64_t specHash);

/** Total generate+compile pipelines this process has run (test and
 *  diagnostics hook for the build cache's hit rate). */
uint64_t nativeCompileCount();

/**
 * Execute a built simulator for `cycles` (the program runs cycles+1
 * loop iterations, thesis semantics). Does not throw on a nonzero
 * exit: the caller inspects NativeRun::exitCode/stderrText.
 *
 * @throws SimError only if the process cannot be launched
 */
NativeRun runBinary(const NativeBuild &build, int64_t cycles,
                    const std::string &stdinText = "");

/**
 * Run the full pipeline (compileSpec + runBinary).
 *
 * @param rs resolved specification
 * @param cycles value for the generated program's cycle argument; the
 *        program executes cycles+1 loop iterations (thesis semantics)
 * @param opts codegen options
 * @param workDir directory for artifacts; empty = fresh temp dir
 * @param stdinText text piped to the program's standard input
 * @throws SimError if the compiler or the program fails
 */
NativeResult compileAndRun(const ResolvedSpec &rs, int64_t cycles,
                           const CodegenOptions &opts = {},
                           std::string workDir = "",
                           const std::string &stdinText = "");

} // namespace asim

#endif // ASIM_CODEGEN_NATIVE_HH
