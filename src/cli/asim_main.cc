/**
 * @file
 * `asim-run` — run an ASIM II specification through the Simulation
 * facade. `asim-run --help` lists every flag; the option table in
 * optionTable() is the one place they are documented.
 *
 * One invocation runs in one of five modes: a single run (the
 * default), --dump-bytecode, a --campaign, a --batch or
 * --batch-manifest, or --connect to an asim-serve daemon. Batch runs
 * print a per-instance summary table instead of a trace and exit 2
 * when any instance faulted. --save-state/--restore-from work
 * remotely too: the daemon's SNAPSHOT blob *is* a checkpoint file.
 *
 * Mirrors the thesis' interactive behavior: when no cycle count is
 * available it asks "Number of cycles to trace", and after the run it
 * offers "Continue to cycle (0 to quit)". Scripted runs are fully
 * non-interactive.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "analysis/campaign.hh"
#include "cli/options.hh"
#include "machines/synthetic.hh"
#include "serve/client.hh"
#include "sim/batch.hh"
#include "sim/compiler.hh"
#include "sim/partition.hh"
#include "sim/simulation.hh"
#include "support/serialize.hh"
#include "support/text.hh"
#include "support/thread_pool.hh"
#include "support/tracing.hh"

namespace {

using namespace asim;

/** Finalize an open --trace-out file on every exit path (stop() is a
 *  no-op when tracing never started). */
struct TraceGuard
{
    ~TraceGuard() { tracing::stop(); }
};

/** Everything the command line sets. */
struct Cli
{
    std::string file;
    SimulationOptions opts;
    int64_t cycles = -1; ///< -1: the spec's own `=` count
    bool stats = false;
    bool noTrace = false;
    bool ioFlagSeen = false;
    bool dumpBytecode = false;
    std::optional<SyntheticOptions> synthetic;
    std::string traceOut;
    CampaignOptions campaign; ///< runs == 0: no campaign
    BatchOptions batch;       ///< threads serve campaigns too
    int64_t batchCount = 0;
    std::string manifest;
    std::string jsonPath;
    std::string saveState;
    std::string restoreFrom;

    std::string endpoint;
    std::string session;
    bool serverStats = false;
    bool serverMetrics = false;
    bool shutdownServer = false;
    bool evictAfter = false;
    bool closeAfter = false;
};

cli::OptionTable
optionTable(Cli &c)
{
    cli::OptionTable t("asim-run", "<spec-file>");
    t.add("--engine", "NAME", "execution engine (default vm)",
          [&](auto &v) {
              requireEngine(v);
              c.opts.engine = v;
          });
    t.integer("--partitions", "N", 1, kPartitionMaxLanes,
              "worker lanes for one design (interp only)", &c.opts.partitions);
    t.add("--synthetic", "PRESET", "generated spec: 1k, 10k, 100k, 1m or N",
          [&](auto &v) { c.synthetic = syntheticPreset(v); });
    t.integer("--cycles", "N", 0, INT64_MAX,
              "override the spec's `=` cycle count", &c.cycles);
    t.add("--io", "interactive|null|script:FILE",
          "I/O mode (default interactive)", [&](auto &v) {
              if (v == "interactive") {
                  c.opts.ioMode = IoMode::Interactive;
              } else if (v == "null") {
                  c.opts.ioMode = IoMode::Null;
              } else if (startsWith(v, "script:")) {
                  c.opts.ioMode = IoMode::Script;
                  c.opts.scriptInputs = Simulation::loadScript(v.substr(7));
              } else {
                  throw cli::BadValue{};
              }
              c.ioFlagSeen = true;
          });
    t.flag("--stats", "print access statistics after the run", &c.stats);
    t.flag("--no-trace", "suppress the per-cycle trace", &c.noTrace);
    t.add("--fixed-shl", "", "use repaired shift-left semantics",
          [&](auto &) { c.opts.config.aluSemantics = AluSemantics::Fixed; });
    t.add("--list-engines", "", "list registered engines and exit",
          [](auto &) {
              for (const auto &[name, about] : listEngines())
                  std::cout << name << "\t" << about << "\n";
              std::exit(0);
          });
    t.flag("--dump-bytecode", "print the vm's fused bytecode and exit",
           &c.dumpBytecode);
    t.text("--trace-out", "FILE", "write a Perfetto JSON trace to FILE",
           &c.traceOut);

    t.section("Fault injection (analysis/fault.hh, analysis/campaign.hh):");
    t.text("--inject", "COMP[CELL]:BIT:MODE[@CYCLE]",
           "stuck-at splice; with @CYCLE a transient upset", &c.opts.fault);
    t.integer("--campaign", "N", 1, kBatchMaxCount,
              "run N injections off a golden checkpoint", &c.campaign.runs);
    t.integer("--seed", "S", 0, INT64_MAX, "campaign seed (default 1)",
              &c.campaign.seed, 0);
    t.integer("--golden-cycle", "N", 0, INT64_MAX,
              "golden cycle (default horizon/2)", &c.campaign.goldenCycle);
    t.text("--injector", "MODE", "campaign fault policy (default toggle)",
           &c.campaign.injector);
    t.add("--campaign-watch", "COMP:VALUE",
          "runs that never reach COMP == VALUE hang", [&](auto &v) {
              auto colon = v.rfind(':');
              auto value = colon == std::string::npos || colon == 0
                               ? std::nullopt
                               : parseInteger(v.substr(colon + 1),
                                              INT32_MIN, INT32_MAX, 0);
              if (!value)
                  throw cli::BadValue{};
              c.campaign.watchName = v.substr(0, colon);
              c.campaign.watchValue = int32_t(*value);
          });
    t.integer("--hang-budget", "N", 0, INT64_MAX,
              "cycles past the horizon to hang", &c.campaign.hangBudget);
    t.flag("--campaign-splice", "sample splices, not transient upsets",
           &c.campaign.splice);
    t.add("--list-injectors", "", "list registered fault injectors and exit",
          [](auto &) {
              for (const FaultPolicy &p : kFaultPolicies)
                  std::cout << p.name << "\n";
              std::exit(0);
          });

    t.section("Checkpoints (sim/checkpoint.hh, portable across engines):");
    t.text("--save-state", "FILE", "checkpoint to FILE when the run ends",
           &c.saveState);
    t.text("--restore-from", "FILE", "restore FILE, then run --cycles more",
           &c.restoreFrom);
    t.integer("--checkpoint-every", "N", 1, INT64_MAX,
              "also checkpoint every N cycles", &c.batch.checkpointEvery);

    t.section("Batch mode (sim/batch.hh):");
    t.integer("--batch", "N", 1, kBatchMaxCount,
              "run N instances off one shared resolve", &c.batchCount);
    t.text("--batch-manifest", "FILE", "run the jobs FILE lists, one a line",
           &c.manifest);
    t.integer("--threads", "M", 1, kMaxPoolThreads,
              "worker threads (default: all cores)", &c.batch.threads);
    t.text("--json", "FILE", "also write the report as JSON (- = stdout)",
           &c.jsonPath);
    t.text("--checkpoint-dir", "DIR", "per-instance checkpoints to resume",
           &c.batch.checkpointDir);

    t.section("Remote mode (drive an asim-serve daemon, DESIGN.md §9):");
    t.add("--connect", "ENDPOINT", "unix:PATH, tcp:HOST:PORT or a path",
          [&](auto &v) {
              parseEndpoint(v);
              c.endpoint = v;
          });
    t.text("--session", "NAME", "session name (default: spec basename)",
           &c.session);
    t.flag("--evict", "park the session to disk after the run",
           &c.evictAfter);
    t.flag("--close-session", "delete the session after the run",
           &c.closeAfter);
    t.flag("--server-stats", "print the daemon's STATS JSON and exit",
           &c.serverStats);
    t.flag("--server-metrics", "print the daemon's METRICS JSON and exit",
           &c.serverMetrics);
    t.flag("--shutdown-server", "ask the daemon to shut down cleanly",
           &c.shutdownServer);
    return t;
}

/** Write a --json report to `path` (`-` for stdout). @return false
 *  when the file cannot be written (already reported). */
bool
writeJson(const std::string &path, const std::string &json)
{
    if (path == "-") {
        std::cout << json;
        return true;
    }
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return false;
    }
    out << json;
    return true;
}

/** Assemble and run a batch; returns the process exit code. */
int
runBatch(const Cli &c)
{
    BatchOptions bopts = c.batch;
    bopts.captureState = false; // report channels only
    BatchRunner runner(bopts);

    uint64_t cycles = c.cycles > 0 ? uint64_t(c.cycles) : 0;
    if (!c.manifest.empty()) {
        SimulationOptions defaults = c.opts;
        defaults.specFile.clear();
        runner.loadManifest(c.manifest, defaults, cycles);
    } else {
        BatchJob job;
        job.options = c.opts;
        job.cycles = cycles;
        runner.addBatch(job, size_t(c.batchCount));
    }

    if (!bopts.checkpointDir.empty()) {
        size_t resumed = runner.resumeFromCheckpoints();
        if (resumed > 0) {
            std::cerr << "resuming " << resumed << " of "
                      << runner.jobCount() << " instances from "
                      << bopts.checkpointDir << "\n";
        }
    }

    BatchResult result = runner.run();
    std::cout << result.summaryTable();
    if (c.stats)
        std::cerr << result.aggregate.summary();
    if (!c.jsonPath.empty() && !writeJson(c.jsonPath, result.json()))
        return 1;
    return result.allOk() ? 0 : 2;
}

/** Run a fault campaign; returns the process exit code. */
int
runCampaign(const Cli &c)
{
    CampaignOptions co = c.campaign;
    co.base = c.opts;
    if (c.cycles > 0)
        co.horizon = uint64_t(c.cycles);
    co.threads = c.batch.threads;

    CampaignRunner runner(std::move(co));
    CampaignResult result = runner.run();
    std::cout << result.table();
    if (c.stats) {
        std::cerr << result.total.injections << " injections: "
                  << result.total.masked << " masked, "
                  << result.total.sdc << " sdc, "
                  << result.total.fault << " fault, "
                  << result.total.hang << " hang\n";
    }
    if (!c.jsonPath.empty() && !writeJson(c.jsonPath, result.json()))
        return 1;
    return 0;
}

/** A --session default the daemon will accept, derived from the
 *  spec filename ("specs/counter.asim" -> "counter"). */
std::string
defaultSessionName(const std::string &file)
{
    std::string name = std::filesystem::path(file).stem().string();
    for (char &ch : name) {
        if (!isLetter(ch) && !isDigit(ch) && ch != '.' && ch != '_' &&
            ch != '-')
            ch = '_';
    }
    return name.empty() || name.size() > 64 ? "cli" : name;
}

/** Drive an asim-serve daemon instead of simulating in process. */
int
runRemote(const Cli &c)
{
    serve::ServeClient client(c.endpoint);

    // Admin-only invocations need no spec at all.
    if ((c.file.empty() && c.opts.specText.empty()) || c.serverStats ||
        c.serverMetrics) {
        if (c.serverStats)
            std::cout << client.statsJson() << "\n";
        if (c.serverMetrics)
            std::cout << client.metricsJson() << "\n";
        if (c.shutdownServer)
            client.shutdownServer();
        if (!c.serverStats && !c.serverMetrics && !c.shutdownServer) {
            std::cerr << "--connect without a spec file needs "
                         "--server-stats, --server-metrics, or "
                         "--shutdown-server\n";
            return 1;
        }
        return 0;
    }

    std::string specText = c.opts.specText;
    if (!c.file.empty()) {
        std::ifstream in(c.file);
        if (!in) {
            std::cerr << "cannot read " << c.file << "\n";
            return 1;
        }
        specText.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }

    serve::ServeClient::OpenOptions open;
    open.name = c.session.empty()
                    ? (c.file.empty() ? "synthetic"
                                      : defaultSessionName(c.file))
                    : c.session;
    open.specText = specText;
    open.engine = c.opts.engine;
    open.io = c.opts.ioMode == IoMode::Script ? serve::SessionIo::Script
                                              : serve::SessionIo::Null;
    open.inputs = c.opts.scriptInputs;
    open.trace = !c.noTrace;
    open.aluFixed = c.opts.config.aluSemantics == AluSemantics::Fixed;
    open.partitions = c.opts.partitions;

    auto session = client.open(open);
    std::cerr << "session \"" << open.name << "\" (id " << session.id
              << ") on " << c.endpoint << " at cycle " << session.cycle
              << (session.resumed ? " (resumed from checkpoint)" : "")
              << "\n";

    if (!c.restoreFrom.empty()) {
        std::ifstream ckpt(c.restoreFrom, std::ios::binary);
        if (!ckpt) {
            std::cerr << "cannot read " << c.restoreFrom << "\n";
            return 1;
        }
        std::string blob{std::istreambuf_iterator<char>(ckpt),
                         std::istreambuf_iterator<char>()};
        uint64_t cycle = client.restore(session.id, blob);
        std::cerr << "restored " << c.restoreFrom << " at cycle "
                  << cycle << "\n";
    }

    int64_t todo = c.cycles >= 0 ? c.cycles : session.defaultCycles;
    if (todo < 0) {
        std::cerr << "spec names no cycle count; pass --cycles=N\n";
        return 1;
    }
    auto run = client.run(session.id, uint64_t(todo));
    std::cout << run.output;
    std::cerr << "ran to cycle " << run.cycle << "\n";

    if (!c.saveState.empty()) {
        writeFileAtomic(c.saveState, client.snapshot(session.id));
        std::cerr << "saved checkpoint " << c.saveState << " at cycle "
                  << run.cycle << "\n";
    }
    if (c.stats)
        std::cerr << client.statsJson() << "\n";
    if (c.closeAfter)
        client.closeSession(session.id);
    else if (c.evictAfter)
        client.evict(session.id);
    if (c.shutdownServer)
        client.shutdownServer();
    return 0;
}

/** One in-process run, the thesis' own mode. */
int
runSingle(Cli &c)
{
    c.opts.traceStream = c.noTrace ? nullptr : &std::cout;
    Simulation sim(c.opts);
    for (const auto &w : sim.diagnostics().warnings())
        std::cerr << w << "\n";
    std::cerr << sim.resolved().spec.comps.size()
              << " components read.\n";
    if (const auto *pi =
            dynamic_cast<const PartitionedInterpreter *>(&sim.engine()))
        std::cerr << pi->plan().summary() << "\n";

    if (!c.restoreFrom.empty()) {
        sim.restoreCheckpoint(c.restoreFrom);
        std::cerr << "restored " << c.restoreFrom << " at cycle "
                  << sim.cycle() << "\n";
    }

    const bool interactive =
        c.opts.ioMode == IoMode::Interactive && !c.synthetic;
    int64_t todo = c.cycles;
    if (todo < 0)
        todo = sim.defaultCycles();
    if (todo < 0) {
        if (!interactive) {
            std::cerr << "spec names no cycle count; pass "
                         "--cycles=N\n";
            return 1;
        }
        std::cout << "Number of cycles to trace\n";
        std::cin >> todo;
        ++todo; // thesis loop is inclusive
    }

    // One run step, checkpointing every checkpointEvery cycles when
    // asked to.
    auto runChunked = [&](uint64_t n) {
        while (n > 0) {
            uint64_t chunk = n;
            if (c.batch.checkpointEvery != 0)
                chunk = std::min(chunk, c.batch.checkpointEvery);
            sim.run(chunk);
            n -= chunk;
            if (c.batch.checkpointEvery != 0 && n > 0)
                sim.saveCheckpoint(c.saveState);
        }
    };

    while (todo > 0) {
        runChunked(uint64_t(todo));
        // Explicit --cycles or a scripted/null run: no interactive
        // continue.
        if (c.cycles >= 0 || !interactive)
            break;
        std::cout << "Continue to cycle (0 to quit)\n";
        int64_t target = 0;
        if (!(std::cin >> target) || target <= 0)
            break;
        todo = target - int64_t(sim.cycle()) + 1;
    }

    if (!c.saveState.empty()) {
        sim.saveCheckpoint(c.saveState);
        std::cerr << "saved checkpoint " << c.saveState << " at cycle "
                  << sim.cycle() << "\n";
    }
    if (c.stats)
        std::cerr << sim.stats().summary();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli c;
    c.opts.ioMode = IoMode::Interactive;
    c.campaign.runs = 0;
    cli::OptionTable table = optionTable(c);
    std::vector<std::string> operands;
    if (auto rc = table.parse(argc, argv, operands))
        return *rc;
    if (!operands.empty())
        c.file = operands.back();

    TraceGuard traceGuard;
    if (!c.traceOut.empty() && !tracing::start(c.traceOut)) {
        std::cerr << "cannot write trace file " << c.traceOut << "\n";
        return 1;
    }
    if (c.synthetic) {
        if (!c.file.empty()) {
            std::cerr << "--synthetic and a spec file are mutually "
                         "exclusive\n";
            return 1;
        }
        c.opts.specText = generateSyntheticText(*c.synthetic);
        // Corpus specs are I/O-free and name their own cycle count;
        // never prompt interactively.
        if (!c.ioFlagSeen)
            c.opts.ioMode = IoMode::Null;
    }
    c.opts.specFile = c.file;

    enum class Mode { Single, DumpBytecode, Campaign, Batch, Remote };
    const bool batch = c.batchCount > 0 || !c.manifest.empty();
    const Mode mode = !c.endpoint.empty() ? Mode::Remote
                      : c.dumpBytecode    ? Mode::DumpBytecode
                      : c.campaign.runs   ? Mode::Campaign
                      : batch             ? Mode::Batch
                                          : Mode::Single;
    if (mode == Mode::Remote) {
        if (!c.opts.fault.empty() || c.campaign.runs > 0) {
            std::cerr << "--inject/--campaign run in process; they "
                         "are not supported with --connect\n";
            return 1;
        }
    } else {
        if (c.serverStats || c.shutdownServer || c.evictAfter ||
            c.closeAfter || !c.session.empty()) {
            std::cerr << "--session/--server-stats/--shutdown-server/"
                         "--evict/--close-session need --connect\n";
            return 1;
        }
        if (c.file.empty() && c.manifest.empty() && !c.synthetic) {
            table.usage(std::cerr);
            return 1;
        }
    }
    if (mode == Mode::Campaign) {
        if (batch) {
            std::cerr << "--campaign and --batch/--batch-manifest "
                         "are mutually exclusive\n";
            return 1;
        }
        if (!c.opts.fault.empty()) {
            std::cerr << "--campaign samples its own faults; it is "
                         "mutually exclusive with --inject\n";
            return 1;
        }
        if (!c.saveState.empty() || !c.restoreFrom.empty() ||
            !c.batch.checkpointDir.empty()) {
            std::cerr << "--campaign manages its own golden "
                         "checkpoint; drop --save-state/"
                         "--restore-from/--checkpoint-dir\n";
            return 1;
        }
    }
    if (mode == Mode::Batch) {
        if (c.batchCount > 0 && !c.manifest.empty()) {
            std::cerr << "--batch and --batch-manifest are mutually "
                         "exclusive\n";
            return 1;
        }
        if (!c.saveState.empty() || !c.restoreFrom.empty()) {
            std::cerr << "--save-state/--restore-from are single-run "
                         "flags; batches use --checkpoint-dir\n";
            return 1;
        }
    }
    if (mode == Mode::Single) {
        if (!c.batch.checkpointDir.empty()) {
            std::cerr << "--checkpoint-dir is a batch flag; single "
                         "runs use --save-state/--restore-from\n";
            return 1;
        }
        if (c.batch.checkpointEvery != 0 && c.saveState.empty()) {
            std::cerr << "--checkpoint-every needs --save-state (the "
                         "file the periodic checkpoints go to)\n";
            return 1;
        }
    }
    // Campaign and batch instances run concurrently; without an
    // explicit --io choice they run with null I/O, never interactive.
    if ((mode == Mode::Campaign || mode == Mode::Batch) && !c.ioFlagSeen)
        c.opts.ioMode = IoMode::Null;

    try {
        switch (mode) {
          case Mode::Remote:
            return runRemote(c);
          case Mode::DumpBytecode:
            std::cout << compileProgram(Simulation::loadSpec(c.opts),
                                        c.opts.compiler, !c.noTrace)
                             .disassemble();
            return 0;
          case Mode::Campaign:
            return runCampaign(c);
          case Mode::Batch:
            return runBatch(c);
          case Mode::Single:
            break;
        }
        return runSingle(c);
    } catch (const SpecError &e) {
        std::cerr << e.what() << "\n";
        if (mode == Mode::Single)
            std::cerr << "Error in program (no code generated).\n";
        return 1;
    } catch (const SimError &e) {
        if (mode == Mode::Single)
            std::cerr << "runtime error: ";
        std::cerr << e.what() << "\n";
        return mode == Mode::Single || mode == Mode::Remote ? 2 : 1;
    }
}
