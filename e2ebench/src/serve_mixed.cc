/**
 * @file
 * The `serve-mixed` workload: the built asim-serve daemon as a child
 * process on a Unix socket, driven closed loop by one client
 * connection (on its own client thread) with a seeded mix of reads
 * (RUN(1), pipelined RUN(1) bursts, RUN(1024), VALUE) and writes
 * (SNAPSHOT then RESTORE, EVICT then resume) over vm sessions of the
 * repository's specs/ machines plus one seeded ~1k-component design
 * per connection. Every reply is digested; after the timed phase the
 * same operation streams replay on in-process vm Simulations, which
 * must reproduce every digest.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "serve/client.hh"
#include "sim/checkpoint.hh"
#include "sim/simulation.hh"
#include "support/logging.hh"

extern char **environ;

namespace bench {

namespace {

namespace fs = std::filesystem;
using asim::serve::ServeClient;

/** Client connections, one client thread each. One, so that the
 *  client thread and the daemon's connection thread are the only busy
 *  threads: with two connections all four of the host's CPUs were
 *  busy, and every scheduling hiccup on the shared host reached the
 *  latency tail. */
constexpr unsigned kConnections = 1;
constexpr uint64_t kChunkCycles = 1024;
/** Marks an operation that failed live (thrown error or ERR reply);
 *  it is counted then and skipped by the replay. */
constexpr uint32_t kFailedDigest = 0xffffffffu;

enum class Kind : uint8_t
{
    Run1,
    Burst,
    RunChunk,
    Value,
    Snapshot,
    Restore,
    Evict,
    Resume, ///< latency class of the first request after an EVICT
    Count
};

constexpr size_t kKinds = static_cast<size_t>(Kind::Count);

/** Span and per-layer metric stems, indexed by Kind. */
constexpr std::array<const char *, kKinds> kKindName = {
    "serve.run1",     "serve.run_pipelined", "serve.run_chunk",
    "serve.value",    "serve.snapshot",      "serve.restore",
    "serve.evict",    "serve.resume"};

struct Op
{
    Kind kind = Kind::Run1;
    uint32_t session = 0;
    uint32_t arg = 0; ///< burst length, or VALUE name index
};

struct SessionSpec
{
    std::string name;
    std::string text;
    std::vector<std::string> values;
    bool generated = false;
};

/**
 * One connection's seeded operation stream. The mix (per ten
 * thousand): RUN(1) 3600; pipelined burst of 4-16 RUN(1) 600 and
 * RUN(1024) 1000, both on the specs/ machines only (on the generated
 * design they become RUN(1): its bursts and chunks take hundreds of
 * microseconds to milliseconds, and as a mode under 1% of requests
 * they would put the p99 on the edge of that mode); VALUE 2895;
 * SNAPSHOT 1000; RESTORE of the session's last snapshot 900 (a
 * SNAPSHOT when it has none); EVICT 5 — and the request after an
 * EVICT goes to the evicted session, so it pays the resume. EVICT
 * writes files and a resume rebuilds the session: rare enough that
 * both sit well above the p99 (on a shared host their latency swings
 * with the disk). The p99 then falls inside the RUN(1024) mode of the
 * slowest specs/ machine. The stream never depends on replies, so the
 * verifier regenerates it.
 */
class OpStream
{
  public:
    OpStream(uint64_t seed, unsigned conn,
             const std::vector<SessionSpec> &sessions)
        : rng_(stream(seed, 0x5f00 + conn)), sessions_(&sessions),
          hasSnap_(sessions.size(), false)
    {}

    Op
    next()
    {
        Op op;
        op.session = forced_ >= 0
                         ? uint32_t(forced_)
                         : uint32_t(rng_.below(sessions_->size()));
        forced_ = -1;
        const SessionSpec &s = (*sessions_)[op.session];
        const uint64_t r = rng_.below(10000);
        if (r < 3600) {
            op.kind = Kind::Run1;
        } else if (r < 4200) {
            op.kind = s.generated ? Kind::Run1 : Kind::Burst;
            op.arg = s.generated ? 0 : uint32_t(4 + rng_.below(13));
        } else if (r < 5200) {
            op.kind = s.generated ? Kind::Run1 : Kind::RunChunk;
        } else if (r < 8095) {
            op.kind = Kind::Value;
            op.arg = uint32_t(rng_.below(s.values.size()));
        } else if (r < 9095) {
            op.kind = Kind::Snapshot;
        } else if (r < 9995) {
            op.kind = hasSnap_[op.session] ? Kind::Restore
                                           : Kind::Snapshot;
        } else {
            op.kind = Kind::Evict;
            forced_ = int(op.session);
        }
        if (op.kind == Kind::Snapshot)
            hasSnap_[op.session] = true;
        return op;
    }

  private:
    asim::SplitMix64 rng_;
    const std::vector<SessionSpec> *sessions_;
    std::vector<bool> hasSnap_;
    int forced_ = -1;
};

std::vector<SessionSpec>
connectionSessions(const RunConfig &cfg, unsigned conn)
{
    std::vector<std::string> files;
    for (const auto &ent : fs::directory_iterator(cfg.specsDir)) {
        if (ent.path().extension() == ".asim")
            files.push_back(ent.path().string());
    }
    std::sort(files.begin(), files.end());
    if (files.empty())
        throw asim::SimError("no .asim machines in " + cfg.specsDir);
    std::vector<SessionSpec> out;
    const std::string prefix = "c" + std::to_string(conn) + "-";
    for (const std::string &f : files) {
        SessionSpec s;
        s.name = prefix + fs::path(f).stem().string();
        s.text = readFile(f);
        out.push_back(std::move(s));
    }
    SessionSpec gen;
    gen.name = prefix + "generated";
    gen.text = asim::generateSyntheticText(serveDesign(cfg.seed, conn));
    gen.generated = true;
    out.push_back(std::move(gen));
    for (SessionSpec &s : out)
        s.values = valueNames(s.text);
    return out;
}

/** A reply digest as logged: 32 bits, never the failure mark. */
uint32_t
fold(uint64_t h)
{
    const uint32_t d = fold32(h);
    return d == kFailedDigest ? d - 1 : d;
}

uint64_t
runDigest(uint64_t h, uint64_t cycle, const std::string &output)
{
    return hashMix(hashMix(h, cycle), hashBytes(output));
}

/** The asim-serve child process; killed and reaped on destruction
 *  unless shut down cleanly first. */
class Daemon
{
  public:
    Daemon(const std::string &bin, const std::string &socket,
           const std::string &stateDir)
    {
        int fds[2];
        if (pipe2(fds, O_CLOEXEC) != 0)
            throw asim::SimError("pipe failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY,
                                         0);
        posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY,
                                         0);
        posix_spawn_file_actions_adddup2(&fa, fds[1], 2);
        std::vector<std::string> args = {
            bin, "--socket=" + socket, "--state-dir=" + stateDir,
            "--evict-after-ms=0"};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        close(fds[1]);
        errFd_ = fds[0];
        if (rc != 0) {
            pid_ = -1;
            throw asim::SimError("cannot start " + bin);
        }
        // Ready once the daemon reports its listener (bound before it
        // prints, so a connect after this line succeeds).
        std::string err;
        while (err.find("listening on unix:") == std::string::npos) {
            if (!readErr(err, 10000))
                throw asim::SimError("asim-serve did not start: " + err);
        }
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
        if (errFd_ >= 0)
            close(errFd_);
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int pid() const { return pid_; }

    /** After a SHUTDOWN request: drain its stderr and reap it (killed
     *  if it has not exited 20 s later). @return true on a clean exit */
    bool
    wait()
    {
        std::string err;
        while (readErr(err, 1000)) {
        }
        int status = 0;
        const uint64_t deadline = nowNs() + 20000000000ull;
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (nowNs() > deadline) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            usleep(10000);
        }
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    /** Append what the daemon wrote to stderr; false on EOF/timeout. */
    bool
    readErr(std::string &out, int timeoutMs)
    {
        struct pollfd p = {errFd_, POLLIN, 0};
        if (poll(&p, 1, timeoutMs) <= 0)
            return false;
        char buf[4096];
        const ssize_t n = read(errFd_, buf, sizeof buf);
        if (n <= 0)
            return false;
        out.append(buf, size_t(n));
        return true;
    }

    pid_t pid_ = -1;
    int errFd_ = -1;
};

/** One connection's live side. */
struct Conn
{
    std::vector<SessionSpec> sessions;
    std::unique_ptr<ServeClient> client;
    std::vector<uint64_t> ids;
    std::unique_ptr<OpStream> ops;
    std::vector<std::string> lastBlob; ///< per session
    bool resumeNext = false;           ///< the previous op was EVICT
    std::unique_ptr<DigestLog> digests; ///< one per attempted op
    std::array<LatencyHist, kKinds> byKind;
    uint64_t cycles = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
};

/** Execute one operation against the daemon; returns its digest. */
uint32_t
execLive(Conn &c, const Op &op)
{
    ServeClient &cl = *c.client;
    const uint64_t id = c.ids[op.session];
    uint64_t h = static_cast<uint64_t>(op.kind);
    switch (op.kind) {
      case Kind::Run1: {
        auto r = cl.run(id, 1);
        c.cycles += 1;
        return fold(runDigest(h, r.cycle, r.output));
      }
      case Kind::Burst:
        for (uint32_t i = 0; i < op.arg; ++i)
            cl.sendRun(id, 1);
        for (uint32_t i = 0; i < op.arg; ++i) {
            auto r = cl.readRunReply();
            h = runDigest(h, r.cycle, r.output);
        }
        c.cycles += op.arg;
        return fold(h);
      case Kind::RunChunk: {
        auto r = cl.run(id, kChunkCycles);
        c.cycles += kChunkCycles;
        return fold(runDigest(h, r.cycle, r.output));
      }
      case Kind::Value: {
        const std::string &name = c.sessions[op.session].values[op.arg];
        return fold(hashMix(h, uint32_t(cl.value(id, name))));
      }
      case Kind::Snapshot:
        c.lastBlob[op.session] = cl.snapshot(id);
        return fold(hashMix(h, hashBytes(c.lastBlob[op.session])));
      case Kind::Restore:
        return fold(hashMix(h, cl.restore(id, c.lastBlob[op.session])));
      case Kind::Evict:
        cl.evict(id);
        return fold(h);
      default:
        break;
    }
    return fold(h);
}

/** The same operation on the in-process reference engine. */
uint32_t
execRef(asim::Simulation &sim, const SessionSpec &spec, std::string &blob,
        const Op &op)
{
    uint64_t h = static_cast<uint64_t>(op.kind);
    switch (op.kind) {
      case Kind::Run1:
        sim.run(1);
        return fold(runDigest(h, sim.cycle(), ""));
      case Kind::Burst:
        for (uint32_t i = 0; i < op.arg; ++i) {
            sim.run(1);
            h = runDigest(h, sim.cycle(), "");
        }
        return fold(h);
      case Kind::RunChunk:
        sim.run(kChunkCycles);
        return fold(runDigest(h, sim.cycle(), ""));
      case Kind::Value:
        return fold(hashMix(h, uint32_t(sim.value(spec.values[op.arg]))));
      case Kind::Snapshot:
        blob = asim::encodeCheckpoint(sim.snapshot(), sim.specHash(),
                                      "vm");
        return fold(hashMix(h, hashBytes(blob)));
      case Kind::Restore:
        sim.restore(asim::decodeCheckpoint(blob, "replayed snapshot"));
        return fold(hashMix(h, sim.cycle()));
      default:
        break;
    }
    return fold(h);
}

/** One client thread's closed loop from `t0` until `deadline`. */
void
clientLoop(Conn &c, uint64_t t0, uint64_t deadline, SliceMeter &slices)
{
    try {
        while (nowNs() < deadline) {
            const uint64_t cycles0 = c.cycles;
            const Op op = c.ops->next();
            const Kind cls = c.resumeNext ? Kind::Resume : op.kind;
            c.resumeNext = op.kind == Kind::Evict;
            uint32_t d = kFailedDigest;
            Span span(kKindName[size_t(cls)], "serve");
            try {
                d = execLive(c, op);
            } catch (const asim::SimError &e) {
                // After an ERR inside a pipelined burst the remaining
                // replies are unread: this connection stops here.
                ++c.failed;
                c.digests->push(d);
                c.errors.push_back(e.what());
                break;
            }
            const uint64_t ns = span.stop();
            c.digests->push(d);
            slices.add(secondsBetween(t0, nowNs()), ns,
                       c.cycles - cycles0);
            // A pipelined burst is one operation of the caller; its
            // per-request time is the burst's over its length.
            c.byKind[size_t(cls)].add(
                cls == Kind::Burst ? ns / op.arg : ns);
        }
    } catch (const std::exception &e) {
        ++c.failed;
        c.errors.push_back(std::string("client thread: ") + e.what());
    }
}

} // namespace

WorkloadResult
runServeMixed(const RunConfig &cfg, unsigned setups, LayerMetrics &layers,
              std::string *daemonMetrics)
{
    WorkloadResult res;
    std::vector<Conn> conns(kConnections);
    for (unsigned i = 0; i < kConnections; ++i) {
        conns[i].sessions = connectionSessions(cfg, i);
        conns[i].lastBlob.resize(conns[i].sessions.size());
        conns[i].digests = std::make_unique<DigestLog>(
            cfg.workDir + "/serve-digests-" + std::to_string(i));
    }
    const std::string socket = cfg.workDir + "/serve.sock";

    // The client thread and the daemon (started below, so it inherits
    // the pin) share one CPU until verification, so every request is a
    // direct switch between them. Left to the scheduler they sometimes
    // share a CPU and sometimes not, and a run's latency settles on one
    // of two levels (a p50 of about 9 or 15 us) by where they land.
    std::optional<PinToOneCpu> pin(std::in_place);

    // Set-up: daemon start, every connection, every session OPEN.
    setTraced(cfg.trace);
    std::unique_ptr<Daemon> daemon;
    std::vector<double> connectMs, openMs;
    for (unsigned rep = 0; rep < setups; ++rep) {
        if (daemon) {
            conns[0].client->shutdownServer();
            daemon->wait();
        }
        for (Conn &c : conns) {
            c.client.reset();
            c.ids.clear();
        }
        const std::string stateDir =
            cfg.workDir + "/serve-state-" + std::to_string(rep);
        makeDir(stateDir, true);
        std::error_code ec;
        fs::remove(socket, ec);

        Span setup("setup.serve", "e2e");
        {
            Span s("serve.daemon_start", "serve");
            daemon = std::make_unique<Daemon>(cfg.serveBin, socket,
                                              stateDir);
        }
        for (Conn &c : conns) {
            Span s("serve.connect", "serve");
            c.client = std::make_unique<ServeClient>("unix:" + socket);
            connectMs.push_back(double(s.stop()) * 1e-6);
        }
        for (Conn &c : conns) {
            for (const SessionSpec &spec : c.sessions) {
                Span s("serve.open", "serve");
                ServeClient::OpenOptions oo;
                oo.name = spec.name;
                oo.specText = spec.text;
                oo.engine = "vm";
                c.ids.push_back(c.client->open(oo).id);
                openMs.push_back(double(s.stop()) * 1e-6);
            }
        }
        res.setupSeconds.push_back(setup.seconds());
    }
    for (unsigned i = 0; i < kConnections; ++i)
        conns[i].ops =
            std::make_unique<OpStream>(cfg.seed, i, conns[i].sessions);

    auto phase = [&](double seconds, SliceMeter &slices) {
        std::vector<SliceMeter> perConnSlices(kConnections);
        const uint64_t t0 = nowNs();
        const uint64_t deadline = t0 + uint64_t(seconds * 1e9);
        std::vector<std::thread> threads;
        for (unsigned i = 0; i < kConnections; ++i) {
            threads.emplace_back(clientLoop, std::ref(conns[i]), t0,
                                 deadline, std::ref(perConnSlices[i]));
        }
        for (std::thread &t : threads)
            t.join();
        for (const SliceMeter &s : perConnSlices)
            slices.merge(s);
        return secondsBetween(t0, nowNs());
    };
    res.runSeconds =
        timedPhases(cfg, phase, res.slices, layers);
    res.peakRssMb = vmHwmMb() + vmHwmMb(daemon->pid());
    res.opNote = "one client request round trip (a pipelined burst of "
                 "4-16 RUN(1) counts as one), 1 closed-loop connection";
    if (daemonMetrics)
        *daemonMetrics = conns[0].client->metricsJson();
    conns[0].client->shutdownServer();
    if (!daemon->wait())
        res.notes.push_back("asim-serve did not exit cleanly");
    daemon.reset();

    std::array<LatencyHist, kKinds> byKind;
    for (Conn &c : conns) {
        res.attempted += c.digests->size();
        res.failed += c.failed;
        for (const std::string &e : c.errors)
            res.notes.push_back(e);
        for (size_t k = 0; k < kKinds; ++k)
            byKind[k].merge(c.byKind[k]);
    }
    if (cfg.trace) {
        layers["serve.connect_ms"] = median(connectMs);
        layers["serve.open_ms"] = median(openMs);
        for (size_t k = 0; k < kKinds; ++k) {
            const std::string stem = std::string(kKindName[k]) + "_us";
            layers[stem + ".p50"] = byKind[k].quantileUs(0.50);
            layers[stem + ".p99"] = byKind[k].quantileUs(0.99);
        }
    }

    pin.reset();
    // Verification: replay each connection's stream on in-process vm
    // Simulations (one per session); every reply digest must match.
    Span v("verify.serve", "verify");
    std::vector<std::vector<uint32_t>> logs;
    for (Conn &c : conns)
        logs.push_back(c.digests->readAll());
    if (cfg.corruptReply) {
        OpStream probe(cfg.seed, 0, conns[0].sessions);
        for (uint32_t &d : logs[0]) {
            const Op op = probe.next();
            if (op.kind == Kind::Value || op.kind == Kind::Snapshot) {
                d ^= 1;
                break;
            }
        }
    }
    for (unsigned i = 0; i < kConnections; ++i) {
        Conn &c = conns[i];
        std::vector<std::unique_ptr<asim::Simulation>> refs;
        for (const SessionSpec &spec : c.sessions) {
            asim::SimulationOptions so;
            so.specText = spec.text;
            so.engine = "vm";
            refs.push_back(std::make_unique<asim::Simulation>(so));
        }
        std::vector<std::string> blobs(c.sessions.size());
        OpStream ops(cfg.seed, i, c.sessions);
        uint64_t mismatches = 0;
        for (uint32_t live : logs[i]) {
            const Op op = ops.next();
            if (live == kFailedDigest)
                continue;
            uint32_t want = kFailedDigest;
            try {
                want = execRef(*refs[op.session], c.sessions[op.session],
                               blobs[op.session], op);
            } catch (const asim::SimError &e) {
                if (res.notes.size() < 10)
                    res.notes.push_back(std::string("replay: ") + e.what());
            }
            if (want != live)
                ++mismatches;
        }
        if (mismatches) {
            res.failed += mismatches;
            res.notes.push_back("connection " + std::to_string(i) + ": " +
                                std::to_string(mismatches) +
                                " replies differ from in-process vm");
        }
    }
    return res;
}

void
ledgerCheckpointAndRunCall(const RunConfig &cfg, LayerMetrics &layers)
{
    // In-process Simulation::run(1) over the same machines connection
    // 0 serves, round robin — the base of serve.wire_overhead_us.
    const std::vector<SessionSpec> sessions = connectionSessions(cfg, 0);
    std::vector<std::unique_ptr<asim::Simulation>> sims;
    for (const SessionSpec &spec : sessions) {
        asim::SimulationOptions so;
        so.specText = spec.text;
        so.engine = "vm";
        sims.push_back(std::make_unique<asim::Simulation>(so));
    }
    LatencyHist runCall;
    for (int i = 0; i < 4000; ++i) {
        asim::Simulation &sim = *sims[size_t(i) % sims.size()];
        Span s("sim.run_call", "sim");
        sim.run(1);
        runCall.add(s.stop());
    }
    layers["sim.run_call_us"] = runCall.quantileUs(0.5);

    // Checkpoint encode/decode of the generated design's state.
    asim::Simulation &gen = *sims.back();
    gen.run(64);
    const asim::EngineSnapshot snap = gen.snapshot();
    const uint64_t hash = gen.specHash();
    LatencyHist enc, dec;
    std::string blob;
    for (int i = 0; i < 300; ++i) {
        Span s("checkpoint.encode", "checkpoint");
        blob = asim::encodeCheckpoint(snap, hash, "vm");
        enc.add(s.stop());
    }
    for (int i = 0; i < 300; ++i) {
        Span s("checkpoint.decode", "checkpoint");
        const asim::EngineSnapshot back =
            asim::decodeCheckpoint(blob, "ledger");
        dec.add(s.stop());
    }
    layers["checkpoint.encode_us"] = enc.quantileUs(0.5);
    layers["checkpoint.decode_us"] = dec.quantileUs(0.5);
    layers["checkpoint.bytes"] = double(blob.size());
}

std::string
dumpServeInputs(const RunConfig &cfg)
{
    std::ostringstream os;
    for (unsigned i = 0; i < kConnections; ++i) {
        const std::vector<SessionSpec> sessions = connectionSessions(cfg, i);
        os << "# connection " << i << " generated design\n"
           << sessions.back().text;
        OpStream ops(cfg.seed, i, sessions);
        os << "# connection " << i << " operations\n";
        for (int n = 0; n < 20000; ++n) {
            const Op op = ops.next();
            os << kKindName[size_t(op.kind)] << ' '
               << sessions[op.session].name << ' ' << op.arg << '\n';
        }
    }
    return os.str();
}

} // namespace bench
