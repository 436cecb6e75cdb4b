/** @file
 * Linear-time guard for the front end: parse + resolve (with a
 * Diagnostics sink, so the declaration cross-check runs) must scale
 * linearly in spec size. A 10x larger spec may take at most 25x as
 * long: linear work measures ~10x, a quadratic stage ~100x.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "analysis/resolve.hh"
#include "lang/parser.hh"
#include "machines/synthetic.hh"

namespace asim {
namespace {

constexpr double kMaxRatio = 25.0;

/** Best-of-3 wall time of parse + resolve with a warning sink. */
double
frontEndSeconds(const std::string &text)
{
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
        Diagnostics diag;
        const auto t0 = std::chrono::steady_clock::now();
        ResolvedSpec rs = resolve(parseSpec(text, &diag), &diag);
        const auto t1 = std::chrono::steady_clock::now();
        EXPECT_FALSE(rs.comb.empty());
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

/** `instances` chained uses of a two-component module. Every expanded
 *  name joins the declaration list, so the list grows with the spec. */
std::string
moduleChainText(int instances)
{
    std::string text = "# module chain\n"
                       "o0* .\n"
                       "D cell out in .\n"
                       "A next 4 in 1\n"
                       "A out 8 next 255\n"
                       "E\n"
                       "A o0 2 1 0\n";
    for (int i = 1; i <= instances; ++i) {
        text += "U u" + std::to_string(i) + " cell o" +
                std::to_string(i) + " o" + std::to_string(i - 1) + "\n";
    }
    return text + ".\n";
}

TEST(FrontEndScaling, SyntheticParseResolveIsLinear)
{
    const std::string small =
        generateSyntheticText(syntheticPreset("4000"));
    const std::string large =
        generateSyntheticText(syntheticPreset("40000"));
    const double ts = frontEndSeconds(small);
    const double tl = frontEndSeconds(large);
    EXPECT_LE(tl / ts, kMaxRatio)
        << "4k: " << ts << " s, 40k: " << tl << " s";
}

TEST(FrontEndScaling, ModuleExpansionIsLinear)
{
    // 2 components per instance: ~4k and ~40k components.
    const double ts = frontEndSeconds(moduleChainText(2000));
    const double tl = frontEndSeconds(moduleChainText(20000));
    EXPECT_LE(tl / ts, kMaxRatio)
        << "4k: " << ts << " s, 40k: " << tl << " s";
}

} // namespace
} // namespace asim
