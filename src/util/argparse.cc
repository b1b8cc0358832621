#include "util/argparse.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/logging.h"

namespace shiftpar {

namespace {

const char*
kind_name(int kind)
{
    switch (kind) {
      case 0: return "string";
      case 1: return "int";
      case 2: return "double";
      case 3: return "bool";
    }
    return "?";
}

} // namespace

ArgParser::ArgParser(std::string description)
    : description_(std::move(description))
{
}

void
ArgParser::add_string(const std::string& name, const std::string& def,
                      const std::string& help)
{
    SP_ASSERT(flags_.find(name) == flags_.end(), "duplicate flag ", name);
    flags_[name] = {Kind::kString, help, def};
    order_.push_back(name);
}

void
ArgParser::add_int(const std::string& name, std::int64_t def,
                   const std::string& help)
{
    SP_ASSERT(flags_.find(name) == flags_.end(), "duplicate flag ", name);
    flags_[name] = {Kind::kInt, help, std::to_string(def)};
    order_.push_back(name);
}

void
ArgParser::add_double(const std::string& name, double def,
                      const std::string& help)
{
    SP_ASSERT(flags_.find(name) == flags_.end(), "duplicate flag ", name);
    std::ostringstream os;
    os << def;
    flags_[name] = {Kind::kDouble, help, os.str()};
    order_.push_back(name);
}

void
ArgParser::add_bool(const std::string& name, bool def,
                    const std::string& help)
{
    SP_ASSERT(flags_.find(name) == flags_.end(), "duplicate flag ", name);
    flags_[name] = {Kind::kBool, help, def ? "true" : "false"};
    order_.push_back(name);
}

std::int64_t
parse_int_flag(const std::string& name, const std::string& value)
{
    errno = 0;
    char* end = nullptr;
    const std::int64_t v = std::strtoll(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0')
        fatal("flag --" + name + " expects an integer, got '" + value + "'");
    if (errno == ERANGE)
        fatal("flag --" + name + " value is out of range: '" + value + "'");
    return v;
}

void
ArgParser::set_value(const std::string& name, const std::string& value)
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        fatal("unknown flag --" + name + "\n" + usage());
    // Validate typed values eagerly so errors point at the command line.
    // Overflow is an error, not a silent clamp: a fault spec or sweep
    // bound that saturates to LLONG_MAX/inf would run a very different
    // experiment from the one the user typed.
    if (it->second.kind == Kind::kInt) {
        parse_int_flag(name, value);
    } else if (it->second.kind == Kind::kDouble) {
        errno = 0;
        char* end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0')
            fatal("flag --" + name + " expects a number, got '" + value +
                  "'");
        if (errno == ERANGE || !std::isfinite(v))
            fatal("flag --" + name + " value is out of range: '" + value +
                  "'");
    } else if (it->second.kind == Kind::kBool) {
        if (value != "true" && value != "false")
            fatal("flag --" + name + " expects true/false, got '" + value +
                  "'");
    }
    it->second.value = value;
}

bool
ArgParser::parse(int argc, char** argv)
{
    program_ = argc > 0 ? argv[0] : "program";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            return false;
        }
        if (arg.rfind("--", 0) != 0)
            fatal("positional arguments are not supported: '" + arg + "'");
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            set_value(arg.substr(0, eq), arg.substr(eq + 1));
            continue;
        }
        auto it = flags_.find(arg);
        if (it == flags_.end())
            fatal("unknown flag --" + arg + "\n" + usage());
        if (it->second.kind == Kind::kBool) {
            // Bare boolean flag; consume an optional true/false value.
            if (i + 1 < argc && (std::string(argv[i + 1]) == "true" ||
                                 std::string(argv[i + 1]) == "false")) {
                set_value(arg, argv[++i]);
            } else {
                set_value(arg, "true");
            }
            continue;
        }
        if (i + 1 >= argc)
            fatal("flag --" + arg + " needs a value");
        set_value(arg, argv[++i]);
    }
    return true;
}

const ArgParser::Flag&
ArgParser::lookup(const std::string& name, Kind kind) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        fatal("flag --" + name + " was never declared");
    if (it->second.kind != kind) {
        fatal("flag --" + name + " is a " +
              kind_name(static_cast<int>(it->second.kind)) +
              ", accessed as " + kind_name(static_cast<int>(kind)));
    }
    return it->second;
}

const std::string&
ArgParser::get_string(const std::string& name) const
{
    return lookup(name, Kind::kString).value;
}

std::int64_t
ArgParser::get_int(const std::string& name) const
{
    return std::strtoll(lookup(name, Kind::kInt).value.c_str(), nullptr, 10);
}

double
ArgParser::get_double(const std::string& name) const
{
    return std::strtod(lookup(name, Kind::kDouble).value.c_str(), nullptr);
}

bool
ArgParser::get_bool(const std::string& name) const
{
    return lookup(name, Kind::kBool).value == "true";
}

std::string
ArgParser::usage() const
{
    std::ostringstream os;
    os << description_ << "\n\nflags:\n";
    for (const auto& name : order_) {
        const Flag& f = flags_.at(name);
        os << "  --" << name << " <" << kind_name(static_cast<int>(f.kind))
           << ">  " << f.help << " (default: " << f.value << ")\n";
    }
    return os.str();
}

} // namespace shiftpar
