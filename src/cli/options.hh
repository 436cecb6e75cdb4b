/**
 * @file
 * The command-line option table shared by asim-run, asim2c and
 * asim-serve. Each entry holds a flag's name, the kind of value it
 * takes (none, a string, or an integer in an inclusive range), one
 * help line, and a setter. One parse loop walks argv against the
 * table, and the `--help` text is generated from it, so a flag is
 * documented in exactly one place.
 *
 * Forms: `--name` for a switch, `--name=value` for a value, and a
 * single-dash name (asim2c's `-o`) takes its value from the next
 * argument. An unknown flag, or a value that is missing, malformed
 * or out of range, is a usage error (exit 1) whose message names the
 * flag. Checks that relate several flags stay with each tool.
 */

#ifndef ASIM_CLI_OPTIONS_HH
#define ASIM_CLI_OPTIONS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "support/text.hh"

namespace asim::cli {

/** Thrown by a setter that refuses its value. `wants` says what the
 *  value should have been; empty means the entry's META. */
struct BadValue
{
    std::string wants;
};

class OptionTable
{
  public:
    using Setter = std::function<void(const std::string &)>;

    /** @param program the tool's name, prefixed to every error
     *  @param operands the synopsis after `[options]` */
    OptionTable(std::string program, std::string operands);

    /** Start a titled group of flags in the usage text. */
    void section(std::string title);

    /** One entry, shown as `--name=META` in the usage text; an empty
     *  `meta` makes a switch, which takes no value. */
    void add(std::string name, std::string meta, std::string help,
             Setter set);

    /** A switch that sets `*target`. */
    void
    flag(std::string name, std::string help, bool *target)
    {
        add(name, "", help, [target](auto &) { *target = true; });
    }

    /** A string value stored in `*target`. */
    void
    text(std::string name, std::string meta, std::string help,
         std::string *target)
    {
        add(name, meta, help, [target](auto &v) { *target = v; });
    }

    /** An integer value in [min, max] stored in `*target`, parsed in
     *  `base` (10, or 0 for the C prefixes; see parseInteger). */
    template <class T>
    void
    integer(std::string name, std::string meta, int64_t min, int64_t max,
            std::string help, T *target, int base = 10)
    {
        add(name, meta, help, [=](const std::string &v) {
            auto n = parseInteger(v, min, max, base);
            if (!n) {
                throw BadValue{
                    max == INT64_MAX
                        ? "an integer >= " + std::to_string(min)
                        : "an integer in " + std::to_string(min) + ".." +
                              std::to_string(max)};
            }
            *target = static_cast<T>(*n);
        });
    }

    /**
     * Apply argv to the table; every argument that is not a flag
     * lands in `operands`, in order. @return nothing when the tool
     * should go on, otherwise its exit code: 0 after printing the
     * `--help` text, 1 after reporting a usage error on stderr.
     */
    std::optional<int> parse(int argc, char **argv,
                             std::vector<std::string> &operands) const;

    /** Print the usage text generated from the table. */
    void usage(std::ostream &os) const;

  private:
    struct Option
    {
        std::string name; ///< empty for a section title
        std::string meta; ///< value placeholder; empty for a switch
        std::string help;
        Setter set;
    };

    std::string program_;
    std::string operands_;
    std::vector<Option> options_;
};

} // namespace asim::cli

#endif // ASIM_CLI_OPTIONS_HH
