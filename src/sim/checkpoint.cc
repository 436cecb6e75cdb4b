#include "sim/checkpoint.hh"

#include <cstdio>

#include "support/serialize.hh"
#include "support/text.hh"

namespace asim {

namespace {

/** Sanity ceilings for counts that drive allocations. Far above any
 *  real specification, far below anything that could exhaust memory
 *  off a bit-flipped count (counts are additionally validated
 *  against the bytes actually present — ByteReader::count()). */
constexpr uint64_t kMaxVars = 1u << 24;
constexpr uint64_t kMaxMems = 1u << 20;
constexpr uint64_t kMaxCells = 1u << 28;
constexpr uint64_t kMaxNameLen = 1u << 12;

std::string
readCheckpoint(const std::string &path)
{
    auto bytes = readFile(path);
    if (!bytes)
        throw SimError("cannot read checkpoint " + path);
    return std::move(*bytes);
}

std::string
hex(uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

std::string
encodeCheckpoint(const EngineSnapshot &snap, uint64_t specHash,
                 std::string_view savedBy)
{
    ByteWriter w;
    w.bytes(kCheckpointMagic);
    w.u32(kCheckpointVersion);
    w.u64(specHash);
    w.str(savedBy);
    w.u64(snap.cycle);
    w.u64(snap.ioValues);
    w.u64(snap.ioBytes);

    const SimStats &st = snap.stats;
    w.u64(st.cycles);
    w.u64(st.aluEvals);
    w.u64(st.selEvals);
    w.u64(st.mems.size());
    for (const MemStats &m : st.mems) {
        w.str(m.name);
        w.u64(m.reads);
        w.u64(m.writes);
        w.u64(m.inputs);
        w.u64(m.outputs);
    }

    const MachineState &ms = snap.state;
    w.u64(ms.vars.size());
    for (int32_t v : ms.vars)
        w.i32(v);
    w.u64(ms.mems.size());
    for (const MemoryState &m : ms.mems) {
        w.i32(m.temp);
        w.i32(m.adr);
        w.i32(m.opn);
        w.u64(m.cells.size());
        for (int32_t c : m.cells)
            w.i32(c);
    }

    w.u32(crc32(w.data()));
    return w.take();
}

EngineSnapshot
decodeCheckpoint(std::string_view bytes, const std::string &context,
                 CheckpointInfo *info)
{
    // Integrity gates before any field is trusted: magic first (is
    // this a checkpoint at all — arbitrary files read as themselves,
    // not as checksum noise), then the CRC over the whole file (did
    // it arrive intact), and only then the fields, version
    // included — a bit-flipped version reports corruption, not a
    // phantom format skew.
    {
        ByteReader probe(bytes, context);
        std::string_view magic =
            probe.bytes(kCheckpointMagic.size(), "file magic");
        if (magic != kCheckpointMagic)
            probe.fail("not an ASIM checkpoint (bad magic)");
        if (bytes.size() < kCheckpointMagic.size() + 8)
            probe.fail("truncated before the checksum trailer");
        uint32_t storedCrc = 0;
        for (int i = 0; i < 4; ++i)
            storedCrc |= static_cast<uint32_t>(static_cast<uint8_t>(
                             bytes[bytes.size() - 4 + i]))
                         << (8 * i);
        uint32_t actualCrc =
            crc32(bytes.substr(0, bytes.size() - 4));
        if (storedCrc != actualCrc)
            probe.fail("checksum mismatch (file corrupt): stored " +
                       std::to_string(storedCrc) + ", computed " +
                       std::to_string(actualCrc));
    }

    ByteReader body(bytes.substr(0, bytes.size() - 4), context);
    body.bytes(kCheckpointMagic.size(), "file magic");

    CheckpointInfo ci;
    ci.version = body.u32("format version");
    if (ci.version == 0 || ci.version > kCheckpointVersion) {
        body.fail("format version " + std::to_string(ci.version) +
                  " is newer than this build supports (max " +
                  std::to_string(kCheckpointVersion) + ")");
    }

    ci.specHash = body.u64("spec identity hash");
    ci.savedBy = body.str("saved-by tag");
    if (ci.savedBy.size() > kMaxNameLen)
        body.fail("saved-by tag implausibly long");

    EngineSnapshot snap;
    snap.cycle = body.u64("cycle count");
    ci.cycle = snap.cycle;
    snap.ioValues = body.u64("input value cursor");
    snap.ioBytes = body.u64("input byte cursor");

    snap.stats.cycles = body.u64("stats cycles");
    snap.stats.aluEvals = body.u64("stats ALU evals");
    snap.stats.selEvals = body.u64("stats selector evals");
    uint64_t statMems =
        body.count("stats memory count", kMaxMems, 8 * 4 + 4);
    snap.stats.mems.resize(statMems);
    for (uint64_t i = 0; i < statMems; ++i) {
        MemStats &m = snap.stats.mems[i];
        m.name = body.str("stats memory name");
        if (m.name.size() > kMaxNameLen)
            body.fail("stats memory name implausibly long");
        m.reads = body.u64("stats memory reads");
        m.writes = body.u64("stats memory writes");
        m.inputs = body.u64("stats memory inputs");
        m.outputs = body.u64("stats memory outputs");
    }

    uint64_t vars = body.count("state var count", kMaxVars, 4);
    snap.state.vars.resize(vars);
    for (uint64_t i = 0; i < vars; ++i)
        snap.state.vars[i] = body.i32("state var value");
    uint64_t mems = body.count("state memory count", kMaxMems, 3 * 4 + 8);
    snap.state.mems.resize(mems);
    for (uint64_t i = 0; i < mems; ++i) {
        MemoryState &m = snap.state.mems[i];
        m.temp = body.i32("memory output latch");
        m.adr = body.i32("memory address latch");
        m.opn = body.i32("memory operation latch");
        uint64_t cells = body.count("memory cell count", kMaxCells, 4);
        m.cells.resize(cells);
        for (uint64_t c = 0; c < cells; ++c)
            m.cells[c] = body.i32("memory cell value");
    }

    if (!body.atEnd())
        body.fail("trailing bytes after the machine state (" +
                  std::to_string(body.remaining()) + " unread)");

    if (info)
        *info = ci;
    return snap;
}

void
saveCheckpoint(const Engine &engine, const std::string &path,
               std::string_view savedBy)
{
    writeFileAtomic(
        path,
        encodeCheckpoint(engine.snapshot(),
                         specIdentityHash(engine.resolved()),
                         savedBy));
}

EngineSnapshot
loadCheckpoint(const std::string &path, const ResolvedSpec &rs)
{
    CheckpointInfo ci;
    EngineSnapshot snap = decodeCheckpoint(readCheckpoint(path), path, &ci);

    uint64_t expect = specIdentityHash(rs);
    if (ci.specHash != expect) {
        throw SimError("checkpoint " + path +
                       " was saved for a different specification "
                       "(spec hash " + hex(ci.specHash) +
                       ", this spec is " + hex(expect) + ")");
    }
    if (snap.state.vars.size() !=
            static_cast<size_t>(rs.numVarSlots) ||
        snap.state.mems.size() != rs.mems.size()) {
        throw SimError("checkpoint " + path +
                       " does not match the specification shape "
                       "(component counts differ)");
    }
    for (size_t i = 0; i < rs.mems.size(); ++i) {
        if (snap.state.mems[i].cells.size() !=
            static_cast<size_t>(rs.mems[i].size)) {
            throw SimError("checkpoint " + path +
                           " does not match the specification shape "
                           "(memory <" + rs.mems[i].name +
                           "> size differs)");
        }
    }
    return snap;
}

CheckpointInfo
peekCheckpoint(const std::string &path)
{
    CheckpointInfo ci;
    decodeCheckpoint(readCheckpoint(path), path, &ci);
    return ci;
}

} // namespace asim
