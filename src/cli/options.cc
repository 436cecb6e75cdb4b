#include "cli/options.hh"

#include <algorithm>
#include <iostream>

namespace asim::cli {

namespace {

/** The column help lines start at in the usage text. */
constexpr size_t kHelpColumn = 26;

/** The flag as the usage text shows it: `--name=META` or `-o META`. */
std::string
label(const std::string &name, const std::string &meta)
{
    if (meta.empty())
        return name;
    return name + (startsWith(name, "--") ? "=" : " ") + meta;
}

} // namespace

OptionTable::OptionTable(std::string program, std::string operands)
    : program_(std::move(program)), operands_(std::move(operands))
{
    // parse() answers --help itself; the entry is for the usage text.
    options_.push_back({"--help", "", "print this help and exit", {}});
}

void
OptionTable::section(std::string title)
{
    options_.push_back({"", "", std::move(title), {}});
}

void
OptionTable::add(std::string name, std::string meta, std::string help,
                 Setter set)
{
    options_.push_back({std::move(name), std::move(meta),
                        std::move(help), std::move(set)});
}

std::optional<int>
OptionTable::parse(int argc, char **argv,
                   std::vector<std::string> &operands) const
{
    auto fail = [&](const std::string &message) {
        std::cerr << program_ << ": " << message << "\n";
        return 1;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        }
        if (arg.empty() || arg[0] != '-') {
            operands.push_back(arg);
            continue;
        }
        const bool isLong = startsWith(arg, "--");
        const size_t eq = isLong ? arg.find('=') : std::string::npos;
        const std::string name = arg.substr(0, eq);
        auto it = std::find_if(
            options_.begin(), options_.end(),
            [&](const Option &o) { return o.name == name; });
        if (it == options_.end())
            return fail("unknown option " + arg + " (see --help)");

        std::optional<std::string> value;
        if (eq != std::string::npos)
            value = arg.substr(eq + 1);
        else if (!isLong && !it->meta.empty() && i + 1 < argc)
            value = argv[++i];
        if (it->meta.empty() && value)
            return fail(name + " takes no value");
        if (!it->meta.empty() && !value)
            return fail(name + " needs a value: " +
                        label(name, it->meta));
        try {
            it->set(value.value_or(""));
        } catch (const BadValue &e) {
            return fail(name + " wants " +
                        (e.wants.empty() ? it->meta : e.wants) +
                        ", got \"" + *value + "\"");
        } catch (const std::exception &e) {
            return fail(name + ": " + e.what());
        }
    }
    return std::nullopt;
}

void
OptionTable::usage(std::ostream &os) const
{
    os << "usage: " << program_ << " [options]"
       << (operands_.empty() ? "" : " " + operands_) << "\n";
    for (const Option &o : options_) {
        if (o.name.empty()) {
            os << "\n" << o.help << "\n";
            continue;
        }
        std::string flag = "  " + label(o.name, o.meta);
        if (flag.size() + 2 > kHelpColumn) {
            os << flag << "\n";
            flag.clear();
        }
        os << flag << std::string(kHelpColumn - flag.size(), ' ')
           << o.help << "\n";
    }
}

} // namespace asim::cli
