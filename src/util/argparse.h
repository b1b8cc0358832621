/**
 * @file
 * Minimal command-line flag parser for the example and bench binaries.
 *
 * Supports `--name value`, `--name=value`, and boolean `--flag` forms, with
 * typed accessors and an auto-generated `--help`. Unknown flags are fatal —
 * a typo'd experiment knob should never run silently with defaults.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace shiftpar {

/**
 * Parse `value` as a base-10 integer given to flag `--name`. Trailing
 * characters and values outside `std::int64_t` are fatal errors that name
 * the flag: never a silent prefix parse or a saturated value.
 */
std::int64_t parse_int_flag(const std::string& name,
                            const std::string& value);

/** Declarative flag set bound to argc/argv. */
class ArgParser
{
  public:
    /**
     * @param description One-line program description for --help.
     */
    explicit ArgParser(std::string description);

    /** Declare a string flag with a default. */
    void add_string(const std::string& name, const std::string& def,
                    const std::string& help);

    /** Declare an integer flag with a default. */
    void add_int(const std::string& name, std::int64_t def,
                 const std::string& help);

    /** Declare a floating-point flag with a default. */
    void add_double(const std::string& name, double def,
                    const std::string& help);

    /** Declare a boolean flag (false unless present or `=true`). */
    void add_bool(const std::string& name, bool def,
                  const std::string& help);

    /**
     * Parse argv. On `--help` prints usage and returns false (caller should
     * exit 0); on malformed input calls fatal().
     */
    bool parse(int argc, char** argv);

    /** Typed accessors (fatal on unknown name or wrong type). */
    const std::string& get_string(const std::string& name) const;
    std::int64_t get_int(const std::string& name) const;
    double get_double(const std::string& name) const;
    bool get_bool(const std::string& name) const;

    /** @return usage text. */
    std::string usage() const;

  private:
    enum class Kind { kString, kInt, kDouble, kBool };

    struct Flag
    {
        Kind kind;
        std::string help;
        std::string value;  // canonical textual value
    };

    const Flag& lookup(const std::string& name, Kind kind) const;
    void set_value(const std::string& name, const std::string& value);

    std::string description_;
    std::string program_;
    std::map<std::string, Flag> flags_;
    std::vector<std::string> order_;
};

} // namespace shiftpar
