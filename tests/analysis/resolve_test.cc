/** @file Unit tests for semantic resolution. */

#include <gtest/gtest.h>

#include "analysis/resolve.hh"
#include "lang/parser.hh"

namespace asim {
namespace {

TEST(Resolve, SlotsAndIndexes)
{
    ResolvedSpec rs = resolveText("# slots\n"
                                  "a s m n .\n"
                                  "A a 4 1 1\n"
                                  "S s a.0 1 2\n"
                                  "M m 0 a 1 4\n"
                                  "M n 0 s 1 8\n"
                                  ".\n");
    EXPECT_EQ(rs.numVarSlots, 2);
    EXPECT_EQ(rs.varSlot("a"), 0);
    EXPECT_EQ(rs.varSlot("s"), 1);
    EXPECT_EQ(rs.varSlot("m"), -1);
    EXPECT_EQ(rs.memIndex("m"), 0);
    EXPECT_EQ(rs.memIndex("n"), 1);
    EXPECT_EQ(rs.memIndex("a"), -1);
    ASSERT_EQ(rs.mems.size(), 2u);
    EXPECT_EQ(rs.mems[0].size, 4);
    EXPECT_EQ(rs.mems[1].size, 8);
}

TEST(Resolve, ConstantFunctDetected)
{
    ResolvedSpec rs = resolveText("# funct\n"
                                  "add dyn m .\n"
                                  "A add 4 m 1\n"
                                  "A dyn m.0.2 m 1\n"
                                  "M m 0 add 1 2\n"
                                  ".\n");
    const CombComp *add = nullptr, *dyn = nullptr;
    for (const auto &c : rs.comb) {
        if (c.name == "add")
            add = &c;
        if (c.name == "dyn")
            dyn = &c;
    }
    ASSERT_NE(add, nullptr);
    ASSERT_NE(dyn, nullptr);
    EXPECT_TRUE(add->functConst);
    EXPECT_EQ(add->functValue, 4);
    EXPECT_FALSE(dyn->functConst);
}

TEST(Resolve, ConstFunctOutOfRangeThrows)
{
    EXPECT_THROW(resolveText("# bad funct\n"
                             "a .\n"
                             "A a 99 1 1\n"
                             ".\n"),
                 SpecError);
}

TEST(Resolve, DuplicateDefinitionThrows)
{
    EXPECT_THROW(resolveText("# dup\n"
                             "a .\n"
                             "A a 4 1 1\n"
                             "A a 4 2 2\n"
                             ".\n"),
                 SpecError);
}

TEST(Resolve, UnknownReferenceThrows)
{
    EXPECT_THROW(resolveText("# unknown\n"
                             "a .\n"
                             "A a 4 ghost 1\n"
                             ".\n"),
                 SpecError);
}

TEST(Resolve, CheckdclWarnings)
{
    // Undefined declarations and undeclared definitions interleave in
    // both lists; each kind warns in its own list's order, declared-
    // but-not-defined first, then the traced-but-not-defined notes.
    Diagnostics diag;
    resolveText("# warn\n"
                "ghostA defined* ghostB mem ghostC* ghostA .\n"
                "A extraA 4 1 1\n"
                "A defined 4 1 1\n"
                "M extraB 0 defined 0 2\n"
                "M mem 0 defined 0 2\n"
                "S extraC defined.0 1 2\n"
                ".\n",
                &diag);
    const std::vector<std::string> want = {
        "Warning: ghostA declared but not defined.",
        "Warning: ghostB declared but not defined.",
        "Warning: ghostC declared but not defined.",
        "Warning: ghostA declared but not defined.",
        "Warning: extraA defined but not declared.",
        "Warning: extraB defined but not declared.",
        "Warning: extraC defined but not declared.",
        "Warning: ghostC traced but not defined.",
    };
    EXPECT_EQ(diag.warnings(), want);
}

TEST(Resolve, InitCountMismatchThrows)
{
    // parser enforces exact counts via the -N form; resolve re-checks.
    Spec s = parseSpec("# init\n"
                       "m .\n"
                       "M m 0 0 0 -2 7 9\n"
                       ".\n");
    s.comps[0].init.push_back(11); // corrupt: 3 values, size 2
    EXPECT_THROW(resolve(s), SpecError);
}

TEST(Resolve, TraceListInDeclOrder)
{
    ResolvedSpec rs = resolveText("# trace\n"
                                  "z* a* m* .\n"
                                  "A a 4 1 1\n"
                                  "A z 4 a 1\n"
                                  "M m 0 a 1 1\n"
                                  ".\n");
    ASSERT_EQ(rs.traceList.size(), 3u);
    EXPECT_EQ(rs.traceList[0].name, "z");
    EXPECT_EQ(rs.traceList[1].name, "a");
    EXPECT_EQ(rs.traceList[2].name, "m");
    EXPECT_TRUE(rs.traceList[2].isMem);
}

TEST(Resolve, TracedButUndefinedSkippedWithWarning)
{
    Diagnostics diag;
    ResolvedSpec rs = resolveText("# ghost trace\n"
                                  "ghost* a .\n"
                                  "A a 4 1 1\n"
                                  ".\n",
                                  &diag);
    EXPECT_TRUE(rs.traceList.empty());
    ASSERT_GE(diag.warnings().size(), 1u);
}

TEST(Resolve, TraceModesFromConstantOps)
{
    ResolvedSpec rs =
        resolveText("# tmodes\n"
                    "w r plain m .\n"
                    "A plain 4 1 1\n"
                    "M w 0 plain 5 1\n"   // write + trace-writes
                    "M r 0 plain 8 1\n"   // read + trace-reads
                    "M m 0 plain 1 1\n"   // plain write
                    ".\n");
    EXPECT_EQ(rs.mems[0].traceWrites, MemDesc::TraceMode::Always);
    EXPECT_EQ(rs.mems[0].traceReads, MemDesc::TraceMode::Never);
    EXPECT_EQ(rs.mems[1].traceWrites, MemDesc::TraceMode::Never);
    EXPECT_EQ(rs.mems[1].traceReads, MemDesc::TraceMode::Always);
    EXPECT_EQ(rs.mems[2].traceWrites, MemDesc::TraceMode::Never);
    EXPECT_EQ(rs.mems[2].traceReads, MemDesc::TraceMode::Never);
}

TEST(Resolve, TraceModesFromDynamicOps)
{
    ResolvedSpec rs =
        resolveText("# dyn tmodes\n"
                    "narrow wide m .\n"
                    "A narrow 4 1 1\n"
                    "A wide 4 1 1\n"
                    "M narrow2 0 narrow narrow.0.1 1\n" // 2 bits
                    "M wide2 0 wide wide.0.3 1\n"       // 4 bits
                    "M m 0 narrow 1 1\n"
                    ".\n");
    EXPECT_EQ(rs.mems[0].traceWrites, MemDesc::TraceMode::Never);
    EXPECT_EQ(rs.mems[0].traceReads, MemDesc::TraceMode::Never);
    EXPECT_EQ(rs.mems[1].traceWrites, MemDesc::TraceMode::Runtime);
    EXPECT_EQ(rs.mems[1].traceReads, MemDesc::TraceMode::Runtime);
}

TEST(Resolve, CombSortedOrderExposed)
{
    ResolvedSpec rs = resolveText("# order\n"
                                  "a b .\n"
                                  "A a 4 b 1\n"
                                  "A b 4 1 1\n"
                                  ".\n");
    ASSERT_EQ(rs.comb.size(), 2u);
    EXPECT_EQ(rs.comb[0].name, "b");
    EXPECT_EQ(rs.comb[1].name, "a");
}

} // namespace
} // namespace asim
