#include "sim/engine.hh"

namespace asim {

Engine::Engine(std::shared_ptr<const ResolvedSpec> rs,
               const EngineConfig &cfg)
    : rs_(std::move(rs)), cfg_(cfg), io_(cfg.io ? cfg.io : &nullIo_)
{
    stats_.mems.clear();
    for (const auto &m : rs_->mems) {
        MemStats ms;
        ms.name = m.name;
        stats_.mems.push_back(std::move(ms));
    }
    for (const auto &c : rs_->comb)
        ++(c.kind == CompKind::Alu ? aluCount_ : selCount_);
    state_.reset(*rs_);
}

Engine::Engine(const ResolvedSpec &rs, const EngineConfig &cfg)
    : Engine(std::make_shared<const ResolvedSpec>(rs), cfg)
{}

void
Engine::reset()
{
    state_.reset(*rs_);
    stats_.reset();
    cycle_ = 0;
    // A fresh start reads a scripted input from its beginning, as a
    // restore of a cycle-0 snapshot would.
    io_->seekInputs(0);
}

void
Engine::run(uint64_t cycles)
{
    for (uint64_t i = 0; i < cycles; ++i)
        step();
}

EngineSnapshot
Engine::snapshot() const
{
    refreshState();
    EngineSnapshot snap;
    snap.state = state_;
    snap.cycle = cycle_;
    snap.stats = stats_;
    snap.ioValues = io_->inputsConsumed();
    return snap;
}

void
Engine::checkSnapshotShape(const EngineSnapshot &snap) const
{
    if (snap.state.vars.size() != state_.vars.size() ||
        snap.state.mems.size() != state_.mems.size()) {
        throw SimError("snapshot does not match this specification "
                       "(component counts differ)");
    }
    for (size_t i = 0; i < state_.mems.size(); ++i) {
        if (snap.state.mems[i].cells.size() !=
            state_.mems[i].cells.size()) {
            throw SimError("snapshot does not match this "
                           "specification (memory <" +
                           rs_->mems[i].name + "> size differs)");
        }
    }
}

void
Engine::restore(const EngineSnapshot &snap)
{
    checkSnapshotShape(snap);
    state_ = snap.state;
    cycle_ = snap.cycle;
    stats_ = snap.stats;
    // Best-effort for devices that cannot seek (interactive streams):
    // the machine state is restored either way, matching the old
    // behavior for un-scripted runs.
    io_->seekInputs(snap.ioValues);
}

void
Engine::traceCycle()
{
    if (!cfg_.trace)
        return;
    cfg_.trace->beginCycle(cycle_);
    for (const auto &item : rs_->traceList) {
        int32_t v = item.isMem ? state_.mems[item.slot].temp
                               : state_.vars[item.slot];
        cfg_.trace->value(item.name, v);
    }
    cfg_.trace->endCycle();
}

void
Engine::aluFail(std::string_view alu, int32_t funct, uint64_t cycle)
{
    throw SimError("ALU " + std::string(alu) + " function " +
                   std::to_string(funct) + " outside 0..13 (cycle " +
                   std::to_string(cycle) + ")");
}

int32_t
Engine::value(std::string_view name) const
{
    refreshState();
    int vs = rs_->varSlot(name);
    if (vs >= 0)
        return state_.vars[vs];
    int mi = rs_->memIndex(name);
    if (mi >= 0)
        return state_.mems[mi].temp;
    throw SimError("unknown component <" + std::string(name) + ">");
}

int32_t
Engine::memCell(std::string_view mem, int64_t addr) const
{
    refreshState();
    int mi = rs_->memIndex(mem);
    if (mi < 0)
        throw SimError("unknown memory <" + std::string(mem) + ">");
    const auto &cells = state_.mems[mi].cells;
    if (addr < 0 || addr >= static_cast<int64_t>(cells.size())) {
        throw SimError("address " + std::to_string(addr) +
                       " outside memory " + std::string(mem));
    }
    return cells[addr];
}

} // namespace asim
