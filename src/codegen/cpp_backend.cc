#include "codegen/cpp_backend.hh"

#include "codegen/native.hh"
#include "support/bitops.hh"

namespace asim {

CppBackend::CppBackend(const ResolvedSpec &rs, const CodegenOptions &opts)
    : rs_(rs), opts_(opts), ctx_(rs, "ljb", "temp")
{}

std::string
CppBackend::expr(const ResolvedExpr &e) const
{
    return ctx_.renderExpr(e, "/");
}

bool
CppBackend::engineShell() const
{
    return opts_.emitServeLoop;
}

std::string
CppBackend::dologicCall(const std::string &funct, const std::string &l,
                        const std::string &r, const CombComp &c) const
{
    // The engine shell names the ALU and cycle in its function fault,
    // as the in-process engines do; the standalone shell keeps the
    // thesis' three-argument form.
    const std::string where =
        engineShell() ? ", \"" + c.name + "\", cyclecount" : "";
    return "dologic(" + funct + ", " + l + ", " + r + where + ")";
}

void
CppBackend::emitHeader()
{
    ln("// Generated by asim2c from specification:");
    ln("//#" + rs_.spec.comment);
    ln(engineShell() ? "// Compile with: g++ -O2 -fwrapv -fPIC -shared"
                     : "// Compile with: g++ -O2 -fwrapv");
    if (engineShell()) {
        ln("#include <csetjmp>");
        ln("#include <cstdint>");
        ln("#include <cstdio>");
        ln("#include <cstring>");
    } else {
        ln("#include <chrono>");
        ln("#include <cstdint>");
        ln("#include <cstdio>");
        ln("#include <cstdlib>");
    }
    ln("");
}

void
CppBackend::emitState()
{
    ln("// Machine state: every combinational output in slot order,");
    ln("// then per memory its output, address and operation latches");
    ln("// and its cells (the flat layout of the engine ABI's state");
    ln("// copies). A trivial type: its owner zero-initializes it.");
    ln("struct State");
    ln("{");
    for (int slot = 0; slot < rs_.numVarSlots; ++slot)
        ln("    int32_t " + ctx_.varName(slot) + ";");
    for (const auto &m : rs_.mems) {
        ln("    int32_t " + ctx_.tempName(m.index) + ", adr" + m.name +
           ", opn" + m.name + ";");
        ln("    int32_t " + ctx_.memArrayName(m.index) + "[" +
           std::to_string(m.size) + "];");
    }
    ln("};");
    ln("");
}

void
CppBackend::emitMachine()
{
    if (engineShell()) {
        raw(R"c(// Host callbacks: IoDevice::input/output and the TraceSink
// events, one to one (codegen/native.hh NativeHost).
struct asim_host
{
    void *ctx;
    int32_t (*input)(void *ctx, int32_t address);
    void (*output)(void *ctx, int32_t address, int32_t data);
    void (*begin_cycle)(void *ctx, long long cycle);
    void (*value)(void *ctx, const char *name, int32_t v);
    void (*end_cycle)(void *ctx);
    void (*mem_write)(void *ctx, const char *mem, int32_t adr, int32_t v);
    void (*mem_read)(void *ctx, const char *mem, int32_t adr, int32_t v);
};

)c");
    }
    ln("struct Machine : State");
    ln("{");
    if (engineShell()) {
        ln("    const asim_host *host;");
        ln("    std::jmp_buf fault;");
        ln("    char msg[512];");
        ln("");
    }
    if (opts_.emitStateDump && !engineShell())
        ln("    void dumpstate();");
    ln("    void initvalues();");
    if (engineShell()) {
        ln("    int32_t dologic(int32_t funct, int32_t left, int32_t right,");
        ln("                    const char *alu, long long cycle);");
    } else {
        ln("    int32_t dologic(int32_t funct, int32_t left, int32_t right);");
    }
    raw(R"c(    void docycle(long long cyclecount);

    // I/O, trace and fault hooks, defined by the entry shell.
    int32_t sinput(int32_t address);
    void soutput(int32_t address, int32_t data);
    void tbegin(long long cycle);
    void tvalue(const char *name, int32_t v);
    void tend();
    void twrite(const char *mem, int32_t adr, int32_t v);
    void tread(const char *mem, int32_t adr, int32_t v);
    [[noreturn]] void adrfail(const char *mem, int32_t adr, int32_t size,
                              long long cycle);
    [[noreturn]] void selfail(const char *sel, int32_t idx, int32_t cases,
                              long long cycle);
)c");
    ln(engineShell() ? "    [[noreturn]] void alufail(const char *alu, "
                       "int32_t funct, long long cycle);"
                     : "    [[noreturn]] void alufail(int32_t funct);");
    ln("};");
    ln("");
}

void
CppBackend::emitHelpers()
{
    ln("static inline int32_t");
    ln("land(int32_t a, int32_t b)");
    ln("{");
    ln("    return (int32_t)((uint32_t)a & (uint32_t)b);");
    ln("}");
    ln("");
    ln("int32_t");
    if (engineShell()) {
        ln("Machine::dologic(int32_t funct, int32_t left, int32_t right,");
        ln("                 const char *alu, long long cycle)");
    } else {
        ln("Machine::dologic(int32_t funct, int32_t left, int32_t right)");
    }
    ln("{");
    ln("    const int32_t mask = " + std::to_string(kValueMask) + ";");
    ln("    int32_t value = 0;");
    ln("    switch (funct) {");
    ln("      case 0: value = 0; break;");
    ln("      case 1: value = right; break;");
    ln("      case 2: value = left; break;");
    ln("      case 3: value = mask - left; break;");
    ln("      case 4: value = left + right; break;");
    ln("      case 5: value = left - right; break;");
    if (opts_.aluSemantics == AluSemantics::Thesis) {
        ln("      case 6:");
        ln("        while (right > 0 && left != 0) {");
        ln("            left = land(left + left, mask);");
        ln("            value = left;");
        ln("            --right;");
        ln("        }");
        ln("        break;");
    } else {
        ln("      case 6:");
        ln("        value = land(left, mask);");
        ln("        while (right > 0 && value != 0) {");
        ln("            value = land(value + value, mask);");
        ln("            --right;");
        ln("        }");
        ln("        break;");
    }
    ln("      case 7: value = left * right; break;");
    ln("      case 8: value = land(left, right); break;");
    ln("      case 9: value = left + right - land(left, right); break;");
    ln("      case 10:");
    ln("        value = left + right - land(left, right) * 2;");
    ln("        break;");
    ln("      case 11: value = 0; break;");
    ln("      case 12: value = left == right ? 1 : 0; break;");
    ln("      case 13: value = left < right ? 1 : 0; break;");
    ln("      default:");
    ln(engineShell() ? "        alufail(alu, funct, cycle);"
                     : "        alufail(funct);");
    ln("    }");
    ln("    return value;");
    ln("}");
    ln("");
}

void
CppBackend::emitStandaloneHooks()
{
    // stdio in the thesis text formats, exactly as the engines'
    // StreamIo and StreamTrace render them.
    raw(R"c(int32_t
Machine::sinput(int32_t address)
{
    if (address == 0) {
        int c = std::getchar();
        return c < 0 ? 0 : c;
    }
    if (address != 1)
        std::printf("Input from address %d: ", (int)address);
    long v = 0;
    if (std::scanf("%ld", &v) != 1)
        v = 0;
    return (int32_t)v;
}

void
Machine::soutput(int32_t address, int32_t data)
{
    if (address == 0)
        std::printf("%c\n", (char)(data & 0xff));
    else if (address == 1)
        std::printf("%d\n", (int)data);
    else
        std::printf("Output to address %d: %d\n",
                    (int)address, (int)data);
}

void Machine::tbegin(long long cycle) { std::printf("Cycle %3lld", cycle); }
void Machine::tvalue(const char *name, int32_t v)
{
    std::printf(" %s= %d", name, (int)v);
}
void Machine::tend() { std::printf("\n"); }
void Machine::twrite(const char *mem, int32_t adr, int32_t v)
{
    std::printf("Write to %s at %d: %d\n", mem, (int)adr, (int)v);
}
void Machine::tread(const char *mem, int32_t adr, int32_t v)
{
    std::printf("Read from %s at %d: %d\n", mem, (int)adr, (int)v);
}

void
Machine::adrfail(const char *mem, int32_t adr, int32_t, long long cycle)
{
    std::fprintf(stderr, "memory %s address %d out of range (cycle %lld)\n",
                 mem, (int)adr, cycle);
    std::exit(2);
}

void
Machine::selfail(const char *sel, int32_t idx, int32_t, long long cycle)
{
    std::fprintf(stderr, "selector %s index %d out of range (cycle %lld)\n",
                 sel, (int)idx, cycle);
    std::exit(2);
}

void
Machine::alufail(int32_t funct)
{
    std::fprintf(stderr, "ALU function %d out of range 0..13\n", (int)funct);
    std::exit(2);
}

)c");
}

void
CppBackend::emitEngineHooks()
{
    // Faults format exactly the messages the in-process engines
    // throw, then unwind to asim_run's setjmp.
    raw(R"c(int32_t
Machine::sinput(int32_t address)
{
    return host->input(host->ctx, address);
}

void
Machine::soutput(int32_t address, int32_t data)
{
    host->output(host->ctx, address, data);
}

void Machine::tbegin(long long cycle) { host->begin_cycle(host->ctx, cycle); }
void Machine::tvalue(const char *name, int32_t v)
{
    host->value(host->ctx, name, v);
}
void Machine::tend() { host->end_cycle(host->ctx); }
void Machine::twrite(const char *mem, int32_t adr, int32_t v)
{
    host->mem_write(host->ctx, mem, adr, v);
}
void Machine::tread(const char *mem, int32_t adr, int32_t v)
{
    host->mem_read(host->ctx, mem, adr, v);
}

void
Machine::adrfail(const char *mem, int32_t adr, int32_t size, long long cycle)
{
    std::snprintf(msg, sizeof msg,
                  "memory %s address %d outside 0..%d (cycle %lld)", mem,
                  (int)adr, (int)size - 1, cycle);
    std::longjmp(fault, 1);
}

void
Machine::selfail(const char *sel, int32_t idx, int32_t cases, long long cycle)
{
    std::snprintf(msg, sizeof msg,
                  "selector %s index %d outside its %d cases (cycle %lld)",
                  sel, (int)idx, (int)cases, cycle);
    std::longjmp(fault, 1);
}

void
Machine::alufail(const char *alu, int32_t funct, long long cycle)
{
    std::snprintf(msg, sizeof msg,
                  "ALU %s function %d outside 0..13 (cycle %lld)", alu,
                  (int)funct, cycle);
    std::longjmp(fault, 1);
}

)c");
}

void
CppBackend::emitInitValues()
{
    ln("void");
    ln("Machine::initvalues()");
    ln("{");
    for (const auto &m : rs_.mems) {
        const std::string arr = ctx_.memArrayName(m.index);
        for (size_t i = 0; i < m.init.size(); ++i) {
            ln("    " + arr + "[" + std::to_string(i) +
               "] = " + std::to_string(m.init[i]) + ";");
        }
    }
    ln("}");
    ln("");
}

void
CppBackend::emitAlu(const CombComp &c)
{
    const std::string dst = ctx_.varName(c.slot);
    const std::string l = expr(c.left);
    const std::string r = expr(c.right);
    const std::string lp = CodegenContext::paren(l);
    const std::string rp = CodegenContext::paren(r);

    if (!c.functConst || !opts_.inlineConstAlu) {
        ln("    " + dst + " = " + dologicCall(expr(c.funct), l, r, c) +
           ";");
        return;
    }

    switch (c.functValue) {
      case kAluZero:
      case kAluUnused:
        ln("    " + dst + " = 0;");
        break;
      case kAluRight:
        ln("    " + dst + " = " + r + ";");
        break;
      case kAluLeft:
        ln("    " + dst + " = " + l + ";");
        break;
      case kAluNot:
        ln("    " + dst + " = " + std::to_string(kValueMask) +
           " - " + lp + ";");
        break;
      case kAluAdd:
        ln("    " + dst + " = " + l + " + " + r + ";");
        break;
      case kAluSub:
        ln("    " + dst + " = " + l + " - " + rp + ";");
        break;
      case kAluShl:
        ln("    " + dst + " = " + dologicCall("6", l, r, c) + ";");
        break;
      case kAluMul:
        ln("    " + dst + " = " + lp + " * " + rp + ";");
        break;
      case kAluAnd:
        ln("    " + dst + " = land(" + l + ", " + r + ");");
        break;
      case kAluOr:
        ln("    " + dst + " = " + l + " + " + r + " - land(" + l +
           ", " + r + ");");
        break;
      case kAluXor:
        ln("    " + dst + " = " + l + " + " + r + " - land(" + l +
           ", " + r + ") * 2;");
        break;
      case kAluEq:
        ln("    " + dst + " = " + lp + " == " + rp +
           " ? 1 : 0;");
        break;
      case kAluLt:
        ln("    " + dst + " = " + lp + " < " + rp + " ? 1 : 0;");
        break;
    }
}

void
CppBackend::emitSelector(const CombComp &c)
{
    const std::string dst = ctx_.varName(c.slot);
    ln("    switch (" + expr(c.select) + ") {");
    for (size_t i = 0; i < c.cases.size(); ++i) {
        ln("      case " + std::to_string(i) + ": " + dst + " = " +
           expr(c.cases[i]) + "; break;");
    }
    ln("      default:");
    ln("        selfail(\"" + c.name + "\", " + expr(c.select) + ", " +
       std::to_string(c.cases.size()) + ", cyclecount);");
    ln("    }");
}

void
CppBackend::emitTraceLine()
{
    ln("    tbegin(cyclecount);");
    for (const auto &item : rs_.traceList) {
        std::string v = item.isMem ? ctx_.tempName(item.slot)
                                   : ctx_.varName(item.slot);
        ln("    tvalue(\"" + item.name + "\", " + v + ");");
    }
    ln("    tend();");
}

void
CppBackend::emitMemoryLatches()
{
    for (const auto &m : rs_.mems) {
        ln("    adr" + m.name + " = " + expr(m.addr) + ";");
        ln("    opn" + m.name + " = " + expr(m.opn) + ";");
    }
}

void
CppBackend::emitMemoryUpdate(const MemDesc &m)
{
    const std::string temp = ctx_.tempName(m.index);
    const std::string arr = ctx_.memArrayName(m.index);
    const std::string adr = "adr" + m.name;
    const std::string opn = "opn" + m.name;
    const std::string size = std::to_string(m.size);
    const std::string check = "if ((uint32_t)" + adr + " >= " + size +
                              "u) adrfail(\"" + m.name + "\", " + adr +
                              ", " + size + ", cyclecount);";

    if (m.opnConst && opts_.specializeConstMem) {
        switch (land(m.opnValue, 3)) {
          case mem_op::kRead:
            ln("    " + check);
            ln("    " + temp + " = " + arr + "[" + adr + "];");
            break;
          case mem_op::kWrite:
            ln("    " + check);
            ln("    " + temp + " = " + expr(m.data) + ";");
            ln("    " + arr + "[" + adr + "] = " + temp + ";");
            break;
          case mem_op::kInput:
            ln("    " + temp + " = sinput(" + adr + ");");
            break;
          case mem_op::kOutput:
            ln("    " + temp + " = " + expr(m.data) + ";");
            ln("    soutput(" + adr + ", " + temp + ");");
            break;
        }
        return;
    }

    ln("    switch (land(" + opn + ", 3)) {");
    ln("      case 0:");
    ln("        " + check);
    ln("        " + temp + " = " + arr + "[" + adr + "];");
    ln("        break;");
    ln("      case 1:");
    ln("        " + check);
    ln("        " + temp + " = " + expr(m.data) + ";");
    ln("        " + arr + "[" + adr + "] = " + temp + ";");
    ln("        break;");
    ln("      case 2:");
    ln("        " + temp + " = sinput(" + adr + ");");
    ln("        break;");
    ln("      case 3:");
    ln("        " + temp + " = " + expr(m.data) + ";");
    ln("        soutput(" + adr + ", " + temp + ");");
    ln("        break;");
    ln("    }");
}

void
CppBackend::emitMemoryTraces(const MemDesc &m)
{
    if (!opts_.emitTrace)
        return;
    const std::string temp = ctx_.tempName(m.index);
    const std::string adr = "adr" + m.name;
    const std::string opn = "opn" + m.name;

    const std::string args =
        "(\"" + m.name + "\", " + adr + ", " + temp + ");";
    const std::string wr = "twrite" + args;
    const std::string rd = "tread" + args;

    switch (m.traceWrites) {
      case MemDesc::TraceMode::Always:
        ln("    " + wr);
        break;
      case MemDesc::TraceMode::Runtime:
        ln("    if (land(" + opn + ", 5) == 5)");
        ln("        " + wr);
        break;
      case MemDesc::TraceMode::Never:
        break;
    }
    switch (m.traceReads) {
      case MemDesc::TraceMode::Always:
        ln("    " + rd);
        break;
      case MemDesc::TraceMode::Runtime:
        ln("    if (land(" + opn + ", 9) == 8)");
        ln("        " + rd);
        break;
      case MemDesc::TraceMode::Never:
        break;
    }
}

void
CppBackend::emitDoCycle()
{
    ln("void");
    ln("Machine::docycle(long long cyclecount)");
    ln("{");
    if (rs_.comb.empty() && !opts_.emitTrace)
        ln("    (void)cyclecount;");

    for (const auto &c : rs_.comb) {
        if (c.kind == CompKind::Alu)
            emitAlu(c);
        else
            emitSelector(c);
    }

    if (opts_.emitTrace)
        emitTraceLine();

    emitMemoryLatches();
    for (const auto &m : rs_.mems) {
        emitMemoryUpdate(m);
        emitMemoryTraces(m);
    }
    ln("}");
    ln("");
}

void
CppBackend::emitStateDump()
{
    ln("void");
    ln("Machine::dumpstate()");
    ln("{");
    for (int slot = 0; slot < rs_.numVarSlots; ++slot) {
        ln("    std::fprintf(stderr, \"STATE_V " + std::to_string(slot) +
           " %d\\n\", (int)" + ctx_.varName(slot) + ");");
    }
    for (const auto &m : rs_.mems) {
        const std::string idx = std::to_string(m.index);
        ln("    std::fprintf(stderr, \"STATE_M " + idx +
           " %d %d %d\\n\", (int)" + ctx_.tempName(m.index) +
           ", (int)adr" + m.name + ", (int)opn" + m.name + ");");
        ln("    for (long i = 0; i < " + std::to_string(m.size) +
           "; ++i)");
        ln("        std::fprintf(stderr, \"STATE_C " + idx +
           " %ld %d\\n\", i, (int)" + ctx_.memArrayName(m.index) +
           "[i]);");
    }
    ln("    std::fprintf(stderr, \"STATE_END\\n\");");
    ln("}");
    ln("");
}

void
CppBackend::emitEngineAbi()
{
    const size_t words = nativeStateWords(rs_);

    ln("// The engine ABI (codegen/native.hh NativeAbi). Every engine");
    ln("// instance owns one Machine; nothing here is shared mutable.");
    ln("static const size_t kStateWords = " + std::to_string(words) +
       ";");
    if (words > 0) {
        ln("static_assert(sizeof(State) == kStateWords * sizeof(int32_t),");
        ln("              \"State must be the flat int32 layout\");");
    }
    raw(R"c(
extern "C" void *
asim_create(const asim_host *host)
{
    Machine *m = new Machine();
    m->host = host;
    m->initvalues();
    return m;
}

extern "C" void
asim_destroy(void *m)
{
    delete static_cast<Machine *>(m);
}

extern "C" void
asim_reset(void *p)
{
    Machine *m = static_cast<Machine *>(p);
    std::memset(static_cast<State *>(m), 0, kStateWords * sizeof(int32_t));
    m->initvalues();
}

// Runs n cycles from *cycle, advancing it per completed cycle; returns
// nullptr, or the fault message with *cycle left at the faulting cycle.
extern "C" const char *
asim_run(void *p, uint64_t *cycle, uint64_t n)
{
    Machine *m = static_cast<Machine *>(p);
    if (setjmp(m->fault))
        return m->msg;
    for (const uint64_t end = *cycle + n; *cycle < end; ++*cycle)
        m->docycle((long long)*cycle);
    return nullptr;
}

extern "C" void
asim_get_state(const void *p, int32_t *out)
{
    const State *s = static_cast<const Machine *>(p);
    std::memcpy(out, s, kStateWords * sizeof(int32_t));
}

extern "C" void
asim_set_state(void *p, const int32_t *in)
{
    State *s = static_cast<Machine *>(p);
    std::memcpy(s, in, kStateWords * sizeof(int32_t));
}
)c");
}

void
CppBackend::emitMain()
{
    ln("static Machine machine;");
    ln("");
    ln("int");
    ln("main(int argc, char **argv)");
    ln("{");
    ln("    long long cycles = " + std::to_string(rs_.spec.cycles) +
       ";");
    ln("    if (argc > 1)");
    ln("        cycles = std::atoll(argv[1]);");
    ln("    machine.initvalues();");
    ln("    auto t0 = std::chrono::steady_clock::now();");
    ln("    for (long long cyclecount = 0; cyclecount <= cycles;");
    ln("         ++cyclecount)");
    ln("        machine.docycle(cyclecount);");
    ln("    auto t1 = std::chrono::steady_clock::now();");
    ln("    std::fflush(stdout);");
    ln("    std::fprintf(stderr, \"SIM_NS=%lld\\n\",");
    ln("        (long long)std::chrono::duration_cast<");
    ln("            std::chrono::nanoseconds>(t1 - t0).count());");
    if (opts_.emitStateDump)
        ln("    machine.dumpstate();");
    ln("    return 0;");
    ln("}");
}

std::string
CppBackend::generate()
{
    out_.clear();
    emitHeader();
    emitState();
    emitMachine();
    emitHelpers();
    if (engineShell())
        emitEngineHooks();
    else
        emitStandaloneHooks();
    emitInitValues();
    emitDoCycle();
    if (engineShell()) {
        emitEngineAbi();
    } else {
        if (opts_.emitStateDump)
            emitStateDump();
        emitMain();
    }
    return out_;
}

std::string
generateCpp(const ResolvedSpec &rs, const CodegenOptions &opts)
{
    return CppBackend(rs, opts).generate();
}

} // namespace asim
