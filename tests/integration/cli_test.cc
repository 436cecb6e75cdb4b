/** @file
 * End-to-end tests of the command-line tools (asim-run, asim2c,
 * asim-serve), driven through the shell exactly as a user would.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#ifndef ASIM_RUN_BIN
#define ASIM_RUN_BIN "asim-run"
#endif
#ifndef ASIM2C_BIN
#define ASIM2C_BIN "asim2c"
#endif
#ifndef ASIM_SERVE_BIN
#define ASIM_SERVE_BIN "asim-serve"
#endif
#ifndef ASIM_SPECS_DIR
#define ASIM_SPECS_DIR "specs"
#endif

namespace {

struct CmdResult
{
    int status = -1;
    std::string out;
};

CmdResult
run(const std::string &cmd)
{
    CmdResult r;
    std::string full = cmd + " 2>&1";
    FILE *p = popen(full.c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), p)) > 0)
        r.out.append(buf, n);
    r.status = pclose(p);
    return r;
}

std::string
counterSpec()
{
    return std::string(ASIM_SPECS_DIR) + "/counter.asim";
}

TEST(Cli, AsimRunTracesCounter)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) + " --cycles=5 " +
                      counterSpec());
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("Cycle   0 count= 0"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("Cycle   4 count= 4"),
              std::string::npos);
    EXPECT_NE(r.out.find("components read"), std::string::npos);
}

TEST(Cli, AsimRunEnginesAgree)
{
    auto strip = [](std::string s) {
        // Drop the stderr banner lines (component count).
        std::string out;
        std::istringstream is(s);
        std::string line;
        while (std::getline(is, line)) {
            if (line.rfind("Cycle", 0) == 0)
                out += line + "\n";
        }
        return out;
    };
    CmdResult vm = run(std::string(ASIM_RUN_BIN) +
                       " --engine=vm --cycles=8 " + counterSpec());
    CmdResult in = run(std::string(ASIM_RUN_BIN) +
                       " --engine=interp --cycles=8 " + counterSpec());
    EXPECT_EQ(strip(vm.out), strip(in.out));
    EXPECT_FALSE(strip(vm.out).empty());
}

TEST(Cli, AsimRunStats)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --no-trace --stats --cycles=10 " +
                      counterSpec());
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.out.find("cycles: 10"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("memory count: reads=0 writes=10"),
              std::string::npos);
}

TEST(Cli, AsimRunScriptedIo)
{
    std::string script = "/tmp/asim_cli_echo_script.txt";
    {
        std::ofstream f(script);
        f << "# five inputs\n10 20 30 40 50\n";
    }
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --io=script:" + script + " --no-trace " +
                      std::string(ASIM_SPECS_DIR) + "/echo.asim");
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("10\n20\n30\n40\n50\n"), std::string::npos)
        << r.out;
    std::remove(script.c_str());
}

TEST(Cli, AsimRunRejectsMissingScript)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --io=script:/nonexistent.txt " +
                      counterSpec());
    EXPECT_NE(r.status, 0);
    EXPECT_NE(r.out.find("cannot read"), std::string::npos) << r.out;
}

TEST(Cli, AsimRunBatchHomogeneous)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --batch=3 --threads=2 --stats " +
                      std::string(ASIM_SPECS_DIR) + "/gcd.asim");
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("3 instances, 2 threads"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("gcd.asim#2"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("total cycles: 123"), std::string::npos)
        << r.out; // 3 x 41 inclusive iterations
}

TEST(Cli, AsimRunBatchManifestWithJson)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --batch-manifest=" +
                      std::string(ASIM_SPECS_DIR) +
                      "/batch.manifest --json=-");
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("\"faults\": 0"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("multiplier.asim"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("\"watchpoint_hit\": true"),
              std::string::npos)
        << r.out; // the gcd watch=a:21 line
}

TEST(Cli, AsimRunBatchNative)
{
    if (std::system("g++ --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "no host compiler";
    // Batch-eligible since the persistent --serve protocol: one
    // compiled binary, one child per instance (DESIGN.md §5/§7).
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --batch=2 --engine=native --cycles=10 " +
                      counterSpec());
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("2 instances"), std::string::npos) << r.out;
}

TEST(Cli, AsimRunBatchExitsTwoOnFault)
{
    // gcd.asim run on 5 cycles with a watch that can never hit is
    // fine; instead drive a faulting spec through the batch path.
    std::string spec = "/tmp/asim_cli_batch_fault.asim";
    {
        std::ofstream f(spec);
        f << "# walks off a 4-cell memory\n"
             "count* next .\n"
             "A next 4 count 1\n"
             "M count 0 next 1 1\n"
             "M mem count count 1 4\n"
             ".\n";
    }
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --batch=2 --cycles=20 " + spec);
    EXPECT_EQ(WEXITSTATUS(r.status), 2) << r.out;
    EXPECT_NE(r.out.find("FAULT"), std::string::npos) << r.out;
    std::remove(spec.c_str());
}

TEST(Cli, AsimRunListsEngines)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) + " --list-engines");
    EXPECT_EQ(r.status, 0);
    for (const char *name : {"interp", "vm", "native", "symbolic"})
        EXPECT_NE(r.out.find(name), std::string::npos) << r.out;
}

/** The engine and fault-policy tables as a user sees them: both
 *  listings and both unknown-name errors, byte for byte. */
TEST(Cli, AsimRunListingsAndUnknownNamesAreExact)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) + " --list-engines");
    EXPECT_EQ(r.status, 0);
    EXPECT_EQ(r.out,
              "interp\tslot-resolved table interpreter (ASIM analog); "
              "--partitions=N runs one design bulk-synchronously across "
              "N lanes\n"
              "native\tgenerated C++ through the host compiler, loaded "
              "in process as a shared object (ASIM II pipeline)\n"
              "symbolic\tname-lookup symbolic interpreter (faithful "
              "ASIM baseline)\n"
              "vm\tcompiled bytecode VM (portable ASIM II analog)\n");

    r = run(std::string(ASIM_RUN_BIN) + " --list-injectors");
    EXPECT_EQ(r.status, 0);
    EXPECT_EQ(r.out, "set0\nset1\ntoggle\n");

    // Refused by the option table, before the spec is read.
    r = run(std::string(ASIM_RUN_BIN) + " --engine=jit " + counterSpec());
    EXPECT_EQ(WEXITSTATUS(r.status), 1);
    EXPECT_EQ(r.out, "asim-run: --engine: unknown engine <jit>; "
                     "registered engines: interp, native, symbolic, vm\n");

    r = run(std::string(ASIM_RUN_BIN) + " --inject=count:0:bogus " +
            counterSpec());
    EXPECT_EQ(WEXITSTATUS(r.status), 1);
    EXPECT_EQ(r.out, "Error. Unknown fault injector <bogus>; registered "
                     "injectors: set0, set1, toggle.\n"
                     "Error in program (no code generated).\n");
}

TEST(Cli, AsimRunDumpBytecode)
{
    // Golden smoke over the compile-only path: the dump names every
    // phase stream and the pass counters, and nothing precedes the
    // disassembly.
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --dump-bytecode " + counterSpec());
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_EQ(r.out.rfind("comb:", 0), 0u) << r.out;
    for (const char *section :
         {"comb:", "latch:", "update:", "prologue:", "cycle (fused):"})
        EXPECT_NE(r.out.find(section), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("opt: linked="), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("fused="), std::string::npos) << r.out;
    // The counter's only bounds check is statically discharged, its
    // one ALU is one fault-free run of one shape, and it reads a
    // memory, so nothing folds.
    EXPECT_NE(r.out.find("checksElided=1 segments=1 shapes=1 folded=0 "
                         "hoisted=0\n"),
              std::string::npos)
        << r.out;
}

TEST(Cli, AsimRunRejectsUnknownEngine)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --engine=bogus --cycles=5 " + counterSpec());
    EXPECT_NE(r.status, 0);
    EXPECT_NE(r.out.find("registered engines"), std::string::npos)
        << r.out;
}

TEST(Cli, AsimRunNativeEngine)
{
    if (std::system("g++ --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "no host compiler";
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --engine=native --cycles=5 " + counterSpec());
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("Cycle   4 count= 4"), std::string::npos)
        << r.out;
}

TEST(Cli, AsimRunRejectsBadSpec)
{
    CmdResult r = run(std::string(ASIM_RUN_BIN) + " /dev/null");
    EXPECT_NE(r.status, 0);
    EXPECT_NE(r.out.find("Error"), std::string::npos);
}

TEST(Cli, Asim2cGeneratesPascal)
{
    std::string out = "/tmp/asim2c_test_simulator.p";
    CmdResult r = run(std::string(ASIM2C_BIN) + " --lang=pascal -o " +
                      out + " " + counterSpec());
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("Sorting components."), std::string::npos);
    EXPECT_NE(r.out.find("Generating code."), std::string::npos);
    std::ifstream f(out);
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_NE(ss.str().find("program simulator (input, output);"),
              std::string::npos);
    std::remove(out.c_str());
}

TEST(Cli, Asim2cGeneratedCppCompilesAndRuns)
{
    if (std::system("g++ --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "no host compiler";
    std::string cc = "/tmp/asim2c_test_simulator.cc";
    std::string bin = "/tmp/asim2c_test_simulator";
    CmdResult gen = run(std::string(ASIM2C_BIN) + " --lang=cpp -o " +
                        cc + " " + counterSpec());
    ASSERT_EQ(gen.status, 0) << gen.out;
    CmdResult compile =
        run("g++ -O2 -fwrapv -o " + bin + " " + cc);
    ASSERT_EQ(compile.status, 0) << compile.out;
    CmdResult sim = run(bin + std::string(" 3"));
    EXPECT_EQ(sim.status, 0);
    EXPECT_NE(sim.out.find("Cycle   0 count= 0"),
              std::string::npos)
        << sim.out;
    EXPECT_NE(sim.out.find("Cycle   3 count= 3"),
              std::string::npos);
    std::remove(cc.c_str());
    std::remove(bin.c_str());
}

TEST(Cli, Asim2cRejectsUnknownLanguage)
{
    CmdResult r = run(std::string(ASIM2C_BIN) + " --lang=cobol " +
                      counterSpec());
    EXPECT_NE(r.status, 0);
}

// ---------------------------------------------------------------------
// The shared option table: malformed or out-of-range values are usage
// errors (exit 1) that name the flag, never a silent 0 or prefix read.
// ---------------------------------------------------------------------

/** Expect a usage error whose message contains `message`. */
void
expectUsageError(const std::string &cmd, const std::string &message)
{
    CmdResult r = run(cmd);
    EXPECT_TRUE(WIFEXITED(r.status) && WEXITSTATUS(r.status) == 1)
        << cmd << "\n" << r.out;
    EXPECT_NE(r.out.find(message), std::string::npos)
        << cmd << "\n" << r.out;
    EXPECT_EQ(r.out.find("Cycle"), std::string::npos) << r.out;
}

TEST(Cli, AsimRunRejectsMalformedIntegers)
{
    const std::string bin = ASIM_RUN_BIN;
    expectUsageError(bin + " --cycles=abc " + counterSpec(),
                     "--cycles wants an integer >= 0, got \"abc\"");
    expectUsageError(bin + " --cycles=3x " + counterSpec(),
                     "--cycles wants an integer >= 0, got \"3x\"");
    expectUsageError(bin + " --campaign=8 --seed=banana " +
                         std::string(ASIM_SPECS_DIR) + "/gcd.asim",
                     "--seed wants an integer >= 0, got \"banana\"");
    expectUsageError(bin + " --batch=2 --threads=0 " + counterSpec(),
                     "--threads wants an integer in 1..");
}

TEST(Cli, AsimRunRejectsMalformedTcpPort)
{
    // Not a connection to port 80: the endpoint itself is refused,
    // as a usage error.
    CmdResult r = run(std::string(ASIM_RUN_BIN) +
                      " --connect=tcp:127.0.0.1:80x --server-stats");
    EXPECT_EQ(WEXITSTATUS(r.status), 1) << r.out;
    EXPECT_NE(r.out.find("bad tcp port in endpoint: "
                         "tcp:127.0.0.1:80x"),
              std::string::npos)
        << r.out;

    // A host name is refused the same way (hosts are numeric IPv4).
    r = run(std::string(ASIM_RUN_BIN) +
            " --connect=tcp:localhost:80 --server-stats");
    EXPECT_EQ(WEXITSTATUS(r.status), 1) << r.out;
    EXPECT_NE(r.out.find("numeric IPv4 host, got: localhost"),
              std::string::npos)
        << r.out;
}

TEST(Cli, Asim2cOutputFlagNeedsAFile)
{
    expectUsageError(std::string(ASIM2C_BIN) + " -o",
                     "-o needs a value");
}

TEST(Cli, AsimServeRejectsMalformedIntegers)
{
    // No --socket: even a build that ignored the bad value would exit
    // at once instead of serving.
    const std::string bin = ASIM_SERVE_BIN;
    expectUsageError(bin + " --tcp=70000",
                     "--tcp wants an integer in 0..65535");
    expectUsageError(bin + " --evict-after-ms=x",
                     "--evict-after-ms wants an integer >= 0");
}

/** `--help` exits 0 and names every flag of the tool's table. */
void
expectHelpNames(const std::string &bin,
                std::initializer_list<const char *> flags)
{
    CmdResult r = run(bin + " --help");
    EXPECT_EQ(r.status, 0) << r.out;
    for (const char *flag : flags) {
        EXPECT_NE(r.out.find(std::string("  ") + flag), std::string::npos)
            << flag << "\n" << r.out;
    }
}

TEST(Cli, AsimRunHelpNamesEveryFlag)
{
    expectHelpNames(
        ASIM_RUN_BIN,
        {"--engine=", "--partitions=", "--synthetic=", "--cycles=",
         "--io=", "--stats", "--no-trace", "--fixed-shl",
         "--list-engines", "--dump-bytecode", "--trace-out=",
         "--inject=", "--campaign=", "--seed=", "--golden-cycle=",
         "--injector=", "--campaign-watch=", "--hang-budget=",
         "--campaign-splice", "--list-injectors", "--save-state=",
         "--restore-from=", "--checkpoint-every=", "--batch=",
         "--batch-manifest=", "--threads=", "--json=",
         "--checkpoint-dir=", "--connect=", "--session=", "--evict",
         "--close-session", "--server-stats", "--server-metrics",
         "--shutdown-server", "--help"});
}

TEST(Cli, Asim2cHelpNamesEveryFlag)
{
    expectHelpNames(ASIM2C_BIN,
                    {"--lang=", "-o ", "--no-trace", "--no-optimize",
                     "--fixed-shl", "--spec-hash", "--trace-out=",
                     "--help"});
}

TEST(Cli, AsimServeHelpNamesEveryFlag)
{
    expectHelpNames(ASIM_SERVE_BIN,
                    {"--socket=", "--tcp=", "--state-dir=",
                     "--evict-after-ms=", "--trace-out=", "--quiet",
                     "--help"});
}

} // namespace
