/**
 * @file
 * `asim-serve` — the multi-tenant simulation daemon (DESIGN.md §9).
 * `asim-serve --help` lists every flag.
 *
 * The daemon always runs with timing metrics enabled so a METRICS
 * scrape (or asim-run --server-metrics) returns populated request-
 * latency and engine histograms; the cost is confined to request
 * handling and engine boundaries (docs/OBSERVABILITY.md).
 *
 * The daemon runs until a client sends SHUTDOWN or it receives
 * SIGINT/SIGTERM; both paths park every live session to --state-dir
 * so a restarted daemon resumes them by name. Drive it with
 * `asim-run --connect=<endpoint>` or the serve/client.hh library.
 */

#include <atomic>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "cli/options.hh"
#include "serve/server.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/tracing.hh"

namespace {

std::atomic<bool> gStop{false};

void
onSignal(int)
{
    gStop = true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace asim;

    serve::ServeOptions opts;
    opts.evictAfterMs = 60000;
    bool quiet = false;
    std::string traceOut;

    cli::OptionTable t("asim-serve", "");
    t.text("--socket", "PATH", "listen on a Unix-domain socket at PATH",
           &opts.unixPath);
    t.integer("--tcp", "PORT", 0, 65535,
              "also listen on loopback TCP (0: any port)", &opts.tcpPort);
    t.text("--state-dir", "DIR", "parked sessions (default asim-serve-state)",
           &opts.stateDir);
    t.integer("--evict-after-ms", "N", 0, INT64_MAX,
              "park after N idle ms (60000; 0: never)", &opts.evictAfterMs);
    t.text("--trace-out", "FILE", "write a Chrome trace JSON to FILE on exit",
           &traceOut);
    t.flag("--quiet", "no startup/shutdown chatter", &quiet);
    std::vector<std::string> operands;
    if (auto rc = t.parse(argc, argv, operands))
        return *rc;
    if (!operands.empty()) {
        std::cerr << "asim-serve: unexpected argument " << operands[0]
                  << "\n";
        return 1;
    }
    if (opts.unixPath.empty() && opts.tcpPort < 0) {
        std::cerr << "asim-serve needs --socket=PATH and/or "
                     "--tcp=PORT\n";
        t.usage(std::cerr);
        return 1;
    }

    // Daemon metrics are always live (see file comment); tracing only
    // when asked for.
    metrics::setTimingEnabled(true);
    if (!traceOut.empty() && !tracing::start(traceOut)) {
        std::cerr << "asim-serve: cannot write trace file " << traceOut
                  << "\n";
        return 1;
    }

    try {
        serve::ServeServer server(opts);
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        server.start();
        if (!quiet) {
            if (!opts.unixPath.empty())
                std::cerr << "asim-serve: listening on unix:"
                          << opts.unixPath << "\n";
            if (opts.tcpPort >= 0)
                std::cerr << "asim-serve: listening on tcp:127.0.0.1:"
                          << server.tcpPort() << "\n";
            std::cerr << "asim-serve: state dir " << opts.stateDir
                      << ", evict after " << opts.evictAfterMs
                      << " ms\n";
        }
        while (!server.waitForShutdown(200) && !gStop) {
        }
        if (!quiet) {
            std::cerr << "asim-serve: "
                      << (gStop ? "signal" : "shutdown command")
                      << ", parking sessions\n"
                      << server.statsJson() << "\n";
        }
        server.stop(/*parkSessions=*/true);
        tracing::stop();
        return 0;
    } catch (const SimError &e) {
        std::cerr << "asim-serve: " << e.what() << "\n";
        tracing::stop();
        return 1;
    }
}
