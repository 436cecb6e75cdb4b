#include "sim/interpreter.hh"

#include "support/bitops.hh"

namespace asim {

Interpreter::Interpreter(std::shared_ptr<const ResolvedSpec> rs,
                         const EngineConfig &cfg)
    : Engine(std::move(rs), cfg)
{}

int32_t
Interpreter::eval(const ResolvedExpr &e) const
{
    int32_t acc = e.constTotal;
    for (const auto &t : e.terms) {
        int32_t v = t.bank == ResolvedTerm::Bank::Var
                        ? state_.vars[t.slot]
                        : state_.mems[t.slot].temp;
        if (!t.whole)
            v = land(v, t.mask);
        acc = wadd(acc, shiftField(v, t.shift));
    }
    return acc;
}

void
Interpreter::evalCombOne(const CombComp &c)
{
    if (c.kind == CompKind::Alu) {
        int32_t f = eval(c.funct);
        int32_t l = eval(c.left);
        int32_t r = eval(c.right);
        if (!validAluFunction(f))
            aluFail(c.name, f, cycle_);
        state_.vars[c.slot] = dologic(f, l, r, cfg_.aluSemantics);
    } else {
        int32_t idx = eval(c.select);
        if (idx < 0 || idx >= static_cast<int32_t>(c.cases.size())) {
            throw SimError(
                "selector " + c.name + " index " +
                std::to_string(idx) + " outside its " +
                std::to_string(c.cases.size()) + " cases (cycle " +
                std::to_string(cycle_) + ")");
        }
        state_.vars[c.slot] = eval(c.cases[idx]);
    }
}

void
Interpreter::evalCombinational()
{
    for (const auto &c : rs_->comb)
        evalCombOne(c);
}

void
Interpreter::latchMemOne(const MemDesc &m)
{
    MemoryState &ms = state_.mems[m.index];
    ms.adr = eval(m.addr);
    ms.opn = eval(m.opn);
}

void
Interpreter::latchMemories()
{
    for (const auto &m : rs_->mems)
        latchMemOne(m);
}

void
Interpreter::updateMemOne(const MemDesc &m)
{
    MemoryState &ms = state_.mems[m.index];
    const int32_t op = land(ms.opn, 3);
    const int32_t adr = ms.adr;

    auto checkAddr = [&]() {
        if (adr < 0 ||
            adr >= static_cast<int32_t>(ms.cells.size())) {
            throw SimError(
                "memory " + m.name + " address " +
                std::to_string(adr) + " outside 0.." +
                std::to_string(ms.cells.size() - 1) + " (cycle " +
                std::to_string(cycle_) + ")");
        }
    };

    switch (op) {
      case mem_op::kRead:
        checkAddr();
        ms.temp = ms.cells[adr];
        ++stats_.mems[m.index].reads;
        break;
      case mem_op::kWrite:
        checkAddr();
        ms.temp = eval(m.data);
        ms.cells[adr] = ms.temp;
        ++stats_.mems[m.index].writes;
        break;
      case mem_op::kInput:
        ms.temp = io_->input(adr);
        ++stats_.mems[m.index].inputs;
        break;
      case mem_op::kOutput:
        ms.temp = eval(m.data);
        io_->output(adr, ms.temp);
        ++stats_.mems[m.index].outputs;
        break;
    }

    if (cfg_.trace) {
        if (land(ms.opn, 5) == 5)
            cfg_.trace->memWrite(m.name, adr, ms.temp);
        if (land(ms.opn, 9) == 8)
            cfg_.trace->memRead(m.name, adr, ms.temp);
    }
}

void
Interpreter::updateMemories()
{
    for (const auto &m : rs_->mems)
        updateMemOne(m);
}

void
Interpreter::step()
{
    evalCombinational();
    traceCycle();
    latchMemories();
    updateMemories();
    ++cycle_;
    countCycles(1);
}

std::unique_ptr<Engine>
makeInterpreter(const ResolvedSpec &rs, const EngineConfig &cfg)
{
    return makeInterpreter(std::make_shared<const ResolvedSpec>(rs),
                           cfg);
}

std::unique_ptr<Engine>
makeInterpreter(std::shared_ptr<const ResolvedSpec> rs,
                const EngineConfig &cfg)
{
    return std::make_unique<Interpreter>(std::move(rs), cfg);
}

} // namespace asim
