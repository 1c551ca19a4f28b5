#include "base/args.hh"

#include <cstdlib>
#include <sstream>

#include "base/logging.hh"

namespace mdp
{

ArgParser::ArgParser(std::string program_name)
    : program(std::move(program_name))
{}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    mdp_assert(!options.count(name), "duplicate option --%s",
               name.c_str());
    options[name] = Option{"", help, true};
    order.push_back(name);
}

void
ArgParser::addOption(const std::string &name, const std::string &def,
                     const std::string &help)
{
    mdp_assert(!options.count(name), "duplicate option --%s",
               name.c_str());
    options[name] = Option{def, help, false};
    order.push_back(name);
}

void
ArgParser::addPositional(const std::string &name,
                         const std::string &help)
{
    positionalDecls.emplace_back(name, help);
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    values.clear();
    positional.clear();
    errorMsg.clear();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional.push_back(arg);
            continue;
        }

        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        if (auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }

        auto it = options.find(name);
        if (it == options.end()) {
            errorMsg = "unknown option --" + name;
            return false;
        }

        if (it->second.isFlag) {
            if (has_value) {
                errorMsg = "flag --" + name + " takes no value";
                return false;
            }
            values[name] = std::string(1, '1');
            continue;
        }

        if (!has_value) {
            if (i + 1 >= argc) {
                errorMsg = "option --" + name + " needs a value";
                return false;
            }
            value = argv[++i];
        }
        values[name] = value;
    }
    return true;
}

bool
ArgParser::flag(const std::string &name) const
{
    return values.count(name) > 0;
}

std::string
ArgParser::get(const std::string &name) const
{
    auto it = values.find(name);
    if (it != values.end())
        return it->second;
    auto def = options.find(name);
    mdp_assert(def != options.end(), "undeclared option --%s",
               name.c_str());
    return def->second.def;
}

long
ArgParser::getLong(const std::string &name) const
{
    return std::strtol(get(name).c_str(), nullptr, 10);
}

double
ArgParser::getDouble(const std::string &name) const
{
    return std::strtod(get(name).c_str(), nullptr);
}

std::string
ArgParser::usage() const
{
    std::ostringstream os;
    os << "usage: " << program << " [options]";
    for (const auto &[name, help] : positionalDecls)
        os << " <" << name << ">";
    os << "\n";
    for (const auto &[name, help] : positionalDecls)
        os << "  " << name << ": " << help << "\n";
    os << "options:\n";
    for (const std::string &name : order) {
        const Option &opt = options.at(name);
        os << "  --" << name;
        if (!opt.isFlag)
            os << " <v=" << opt.def << ">";
        os << "  " << opt.help << "\n";
    }
    return os.str();
}

} // namespace mdp
