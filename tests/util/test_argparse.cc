/** @file Unit tests for the command-line flag parser. */

#include <gtest/gtest.h>

#include <vector>

#include "util/argparse.h"

namespace shiftpar {
namespace {

/** Helper: build argv from a list of tokens. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> tokens)
        : tokens_(std::move(tokens))
    {
        ptrs_.push_back(const_cast<char*>("prog"));
        for (auto& t : tokens_)
            ptrs_.push_back(t.data());
    }

    int argc() const { return static_cast<int>(ptrs_.size()); }
    char** argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> tokens_;
    std::vector<char*> ptrs_;
};

ArgParser
make_parser()
{
    ArgParser p("test program");
    p.add_string("name", "default", "a string");
    p.add_int("count", 5, "an int");
    p.add_double("rate", 1.5, "a double");
    p.add_bool("verbose", false, "a bool");
    return p;
}

TEST(ArgParser, DefaultsApply)
{
    auto p = make_parser();
    Argv a({});
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(p.get_string("name"), "default");
    EXPECT_EQ(p.get_int("count"), 5);
    EXPECT_DOUBLE_EQ(p.get_double("rate"), 1.5);
    EXPECT_FALSE(p.get_bool("verbose"));
}

TEST(ArgParser, SpaceSeparatedValues)
{
    auto p = make_parser();
    Argv a({"--name", "hello", "--count", "42", "--rate", "2.25"});
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(p.get_string("name"), "hello");
    EXPECT_EQ(p.get_int("count"), 42);
    EXPECT_DOUBLE_EQ(p.get_double("rate"), 2.25);
}

TEST(ArgParser, EqualsSyntax)
{
    auto p = make_parser();
    Argv a({"--name=world", "--count=-3", "--verbose=true"});
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(p.get_string("name"), "world");
    EXPECT_EQ(p.get_int("count"), -3);
    EXPECT_TRUE(p.get_bool("verbose"));
}

TEST(ArgParser, BareBooleanFlag)
{
    auto p = make_parser();
    Argv a({"--verbose"});
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_TRUE(p.get_bool("verbose"));
}

TEST(ArgParser, BooleanConsumesExplicitValue)
{
    auto p = make_parser();
    Argv a({"--verbose", "false", "--count", "7"});
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_FALSE(p.get_bool("verbose"));
    EXPECT_EQ(p.get_int("count"), 7);
}

TEST(ArgParser, HelpReturnsFalse)
{
    auto p = make_parser();
    Argv a({"--help"});
    EXPECT_FALSE(p.parse(a.argc(), a.argv()));
}

TEST(ArgParser, UsageListsFlagsAndDefaults)
{
    auto p = make_parser();
    const std::string u = p.usage();
    EXPECT_NE(u.find("--name"), std::string::npos);
    EXPECT_NE(u.find("default: 5"), std::string::npos);
    EXPECT_NE(u.find("a double"), std::string::npos);
}

TEST(ArgParser, UnknownFlagIsFatal)
{
    auto p = make_parser();
    Argv a({"--bogus", "1"});
    EXPECT_DEATH(p.parse(a.argc(), a.argv()), "unknown flag");
}

TEST(ArgParser, BadIntIsFatal)
{
    auto p = make_parser();
    Argv a({"--count", "abc"});
    EXPECT_DEATH(p.parse(a.argc(), a.argv()), "expects an integer");
}

TEST(ArgParser, MissingValueIsFatal)
{
    auto p = make_parser();
    Argv a({"--count"});
    EXPECT_DEATH(p.parse(a.argc(), a.argv()), "needs a value");
}

TEST(ArgParser, PositionalArgumentRejected)
{
    auto p = make_parser();
    Argv a({"stray"});
    EXPECT_DEATH(p.parse(a.argc(), a.argv()), "positional");
}

TEST(ArgParser, IntOverflowIsFatal)
{
    // Overflow must not clamp silently to LLONG_MAX: the experiment that
    // runs would not be the one the user typed.
    auto p = make_parser();
    Argv a({"--count", "99999999999999999999"});
    EXPECT_DEATH(p.parse(a.argc(), a.argv()), "out of range");
}

TEST(ArgParser, IntUnderflowIsFatal)
{
    auto p = make_parser();
    Argv a({"--count", "-99999999999999999999"});
    EXPECT_DEATH(p.parse(a.argc(), a.argv()), "out of range");
}

TEST(ArgParser, DoubleOverflowIsFatal)
{
    for (const char* bad : {"1e999", "nan"}) {
        auto p = make_parser();
        Argv a({"--rate", bad});
        EXPECT_DEATH(p.parse(a.argc(), a.argv()), "out of range") << bad;
    }
}

TEST(ArgParser, WrongTypeAccessIsFatal)
{
    auto p = make_parser();
    Argv a({});
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_DEATH(p.get_int("name"), "accessed as");
}

} // namespace
} // namespace shiftpar
