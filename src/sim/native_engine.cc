#include "sim/native_engine.hh"

#include <algorithm>

namespace asim {

NativeEngine::NativeEngine(std::shared_ptr<const ResolvedSpec> rs,
                           const EngineConfig &cfg,
                           std::shared_ptr<const NativeBuild> build)
    : Engine(std::move(rs), cfg), build_(std::move(build)),
      flat_(nativeStateWords(*rs_))
{
    if (!build_->abi.create) {
        throw SimError("shared native build is a standalone "
                       "program, not an engine build");
    }
    if (cfg.trace && !build_->emitsTrace) {
        throw SimError("shared native build was compiled without "
                       "trace output but a trace sink is "
                       "configured");
    }
    if (build_->aluSemantics != cfg.aluSemantics) {
        throw SimError("shared native build was compiled with "
                       "different ALU semantics than this "
                       "engine's configuration");
    }

    // Captureless lambdas in a member function: they reach the
    // protected io_/cfg_ of the engine passed back as ctx.
    static constexpr auto self = [](void *ctx) {
        return static_cast<NativeEngine *>(ctx);
    };
    host_.ctx = this;
    host_.input = [](void *ctx, int32_t address) {
        return self(ctx)->io_->input(address);
    };
    host_.output = [](void *ctx, int32_t address, int32_t data) {
        self(ctx)->io_->output(address, data);
    };
    // A shared build may trace for siblings that capture it; without
    // a sink of our own the events are dropped.
    host_.beginCycle = [](void *ctx, long long cycle) {
        if (TraceSink *t = self(ctx)->cfg_.trace)
            t->beginCycle(static_cast<uint64_t>(cycle));
    };
    host_.value = [](void *ctx, const char *name, int32_t v) {
        if (TraceSink *t = self(ctx)->cfg_.trace)
            t->value(name, v);
    };
    host_.endCycle = [](void *ctx) {
        if (TraceSink *t = self(ctx)->cfg_.trace)
            t->endCycle();
    };
    host_.memWrite = [](void *ctx, const char *mem, int32_t adr,
                        int32_t v) {
        if (TraceSink *t = self(ctx)->cfg_.trace)
            t->memWrite(mem, adr, v);
    };
    host_.memRead = [](void *ctx, const char *mem, int32_t adr,
                       int32_t v) {
        if (TraceSink *t = self(ctx)->cfg_.trace)
            t->memRead(mem, adr, v);
    };
    machine_ = build_->abi.create(&host_);
}

NativeEngine::~NativeEngine()
{
    build_->abi.destroy(machine_);
}

void
NativeEngine::reset()
{
    Engine::reset();
    build_->abi.reset(machine_);
    machineAhead_ = false;
    mirrorOut_ = false;
}

void
NativeEngine::run(uint64_t cycles)
{
    if (cycles == 0)
        return;
    if (mirrorOut_) {
        // Flat layout: vars, then per memory temp, adr, opn, cells.
        int32_t *p = flat_.data();
        p = std::copy(state_.vars.begin(), state_.vars.end(), p);
        for (const MemoryState &m : state_.mems) {
            *p++ = m.temp;
            *p++ = m.adr;
            *p++ = m.opn;
            p = std::copy(m.cells.begin(), m.cells.end(), p);
        }
        build_->abi.setState(machine_, flat_.data());
        mirrorOut_ = false;
    }
    const uint64_t start = cycle_;
    auto settle = [&] {
        machineAhead_ = true;
        countCycles(cycle_ - start);
    };
    const char *fault = nullptr;
    try {
        fault = build_->abi.run(machine_, &cycle_, cycles);
    } catch (...) {
        // A host callback threw: the generated code is C++ built with
        // exceptions and holds no resources, so it unwinds cleanly.
        settle();
        throw;
    }
    settle();
    if (fault)
        throw SimError(fault);
}

void
NativeEngine::refreshState() const
{
    if (machineAhead_) {
        build_->abi.getState(machine_, flat_.data());
        auto &st = const_cast<MachineState &>(state_);
        const int32_t *p = flat_.data();
        for (int32_t &v : st.vars)
            v = *p++;
        for (MemoryState &m : st.mems) {
            m.temp = *p++;
            m.adr = *p++;
            m.opn = *p++;
            for (int32_t &c : m.cells)
                c = *p++;
        }
        machineAhead_ = false;
    }
    // The caller may now edit the mirror through state(); the next
    // run() copies it back in.
    mirrorOut_ = true;
}

void
NativeEngine::restore(const EngineSnapshot &snap)
{
    Engine::restore(snap);
    machineAhead_ = false;
    mirrorOut_ = true;
}

} // namespace asim
