/** @file Unit tests for trace CSV load/save round-tripping. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "workload/mooncake_trace.h"
#include "workload/trace_io.h"

namespace shiftpar::workload {
namespace {

class TraceIoTest : public ::testing::Test
{
  protected:
    // Each test gets its own directory: ctest runs tests in parallel
    // processes from the same working directory, so a shared path would
    // race between one test's writes and another's teardown.
    std::string
    test_dir() const
    {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        return std::string("trace_test_tmp_") + info->name();
    }

    void TearDown() override
    {
        std::filesystem::remove_all(test_dir());
    }

    std::string
    write_file(const std::string& content)
    {
        std::filesystem::create_directories(test_dir());
        const std::string path = test_dir() + "/trace.csv";
        std::ofstream(path) << content;
        return path;
    }
};

TEST_F(TraceIoTest, LoadBasicTrace)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "0.5,4096,250\n"
        "1.25,128,16\n");
    const auto reqs = load_trace(path);
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_DOUBLE_EQ(reqs[0].arrival, 0.5);
    EXPECT_EQ(reqs[0].prompt_tokens, 4096);
    EXPECT_EQ(reqs[1].output_tokens, 16);
}

TEST_F(TraceIoTest, LoadSortsByArrival)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "9.0,10,1\n"
        "1.0,20,1\n"
        "5.0,30,1\n");
    const auto reqs = load_trace(path);
    ASSERT_EQ(reqs.size(), 3u);
    EXPECT_EQ(reqs[0].prompt_tokens, 20);
    EXPECT_EQ(reqs[2].prompt_tokens, 10);
}

TEST_F(TraceIoTest, SkipsBlankLines)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "\n"
        "1.0,10,2\n"
        "\n");
    EXPECT_EQ(load_trace(path).size(), 1u);
}

TEST_F(TraceIoTest, MissingFileIsFatal)
{
    EXPECT_DEATH(load_trace(test_dir() + "/nope.csv"), "cannot open");
}

TEST_F(TraceIoTest, BadHeaderIsFatal)
{
    const auto path = write_file("time,in,out\n1,2,3\n");
    EXPECT_DEATH(load_trace(path), "expected header");
}

TEST_F(TraceIoTest, WrongArityIsFatal)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "1.0,10\n");
    EXPECT_DEATH(load_trace(path), "expected 3 fields");
}

TEST_F(TraceIoTest, NonNumericIsFatal)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "abc,10,2\n");
    EXPECT_DEATH(load_trace(path), "bad number");
}

TEST_F(TraceIoTest, InvalidRequestIsFatal)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "1.0,0,5\n");
    EXPECT_DEATH(load_trace(path), "invalid request");
}

TEST_F(TraceIoTest, NanArrivalIsFatalWithLine)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "0.5,10,2\n"
        "nan,10,2\n");
    EXPECT_DEATH(load_trace(path), "trace.csv:3: non-finite number 'nan'");
}

TEST_F(TraceIoTest, InfArrivalIsFatalWithLine)
{
    // An infinite arrival would never be served, yet the replay would
    // still report full attainment over the requests that did finish.
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "inf,10,2\n");
    EXPECT_DEATH(load_trace(path), "trace.csv:2: non-finite number 'inf'");
}

TEST_F(TraceIoTest, TrailingGarbageIsFatalWithLine)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "0.5abc,10,2\n");
    EXPECT_DEATH(load_trace(path), "trace.csv:2: bad number '0.5abc'");
    const auto tokens = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "0.5,10x,2\n");
    EXPECT_DEATH(load_trace(tokens), "trace.csv:2: bad number '10x'");
}

TEST_F(TraceIoTest, NonIntegralTokenCountIsFatalWithLine)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "0.5,10,2.5\n");
    EXPECT_DEATH(load_trace(path),
                 "trace.csv:2: invalid request: token count '2.5' is not "
                 "an integer");
}

TEST_F(TraceIoTest, OutOfRangeTokenCountIsFatalWithLine)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "0.5,1e30,2\n");
    EXPECT_DEATH(load_trace(path),
                 "trace.csv:2: invalid request: token count '1e30' out of "
                 "range");
}

TEST_F(TraceIoTest, CrlfLineEndingsAndIntegralFloatsStillLoad)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\r\n"
        "0.5,4096.0,250\r\n");
    const auto reqs = load_trace(path);
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].prompt_tokens, 4096);
    EXPECT_EQ(reqs[0].output_tokens, 250);
}

TEST_F(TraceIoTest, SaveLoadRoundTrip)
{
    Rng rng(5);
    MooncakeTraceOptions opts;
    opts.duration = 30.0;
    const auto original = mooncake_conversation_trace(rng, opts);
    ASSERT_FALSE(original.empty());

    const std::string path = test_dir() + "/roundtrip.csv";
    save_trace(path, original);
    const auto loaded = load_trace(path);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_NEAR(loaded[i].arrival, original[i].arrival, 1e-5);
        EXPECT_EQ(loaded[i].prompt_tokens, original[i].prompt_tokens);
        EXPECT_EQ(loaded[i].output_tokens, original[i].output_tokens);
    }
}

} // namespace
} // namespace shiftpar::workload
