/**
 * @file
 * shiftlint CLI — the determinism & invariant static-analysis pass.
 *
 * Usage:
 *   shiftlint [options] [paths...]          (default paths: src bench tests)
 *
 * Options:
 *   --fix                  apply mechanical fixes in place
 *   --format human|sarif   output format (default human)
 *   --baseline FILE        filter findings against a committed baseline
 *   --write-baseline FILE  write the current findings as a new baseline
 *   --check NAME           run only NAME (repeatable)
 *   --list-checks          print the registry and exit
 *   --jobs N               lex files and run checks on N threads
 *                          (0 = hardware concurrency; default 1).
 *                          Output is byte-identical at any job count.
 *   --stats                print a cost breakdown (per-check timing,
 *                          files/sec, index size) to stderr
 *
 * Exit status: 0 clean (or everything suppressed/baselined), 1 findings
 * or a FATAL flag value (missing, not an integer, out of range), 2 usage
 * error. Run from the repository root so baseline paths match.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "driver.h"
#include "util/argparse.h"
#include "util/logging.h"

namespace {

int
usage(const char* argv0)
{
    std::cerr << "usage: " << argv0
              << " [--fix] [--format human|sarif] [--baseline FILE]\n"
                 "       [--write-baseline FILE] [--check NAME]... "
                 "[--list-checks]\n"
                 "       [--jobs N] [--stats] [paths...]\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace shiftpar::lint;

    Options opts;
    std::string format = "human";
    std::string write_baseline_path;
    bool print_stats = false;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                shiftpar::fatal("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--fix") {
            opts.apply_fixes = true;
        } else if (arg == "--format") {
            format = next();
            if (format != "human" && format != "sarif")
                return usage(argv[0]);
        } else if (arg == "--baseline") {
            opts.baseline_path = next();
        } else if (arg == "--write-baseline") {
            write_baseline_path = next();
        } else if (arg == "--check") {
            opts.checks.push_back(next());
        } else if (arg == "--jobs") {
            const std::string value = next();
            const std::int64_t n = shiftpar::parse_int_flag("jobs", value);
            if (n > std::numeric_limits<int>::max())
                shiftpar::fatal("flag --jobs value is out of range: '" +
                                value + "'");
            if (n < 0)
                return usage(argv[0]);
            opts.jobs = static_cast<int>(n);
        } else if (arg == "--stats") {
            print_stats = true;
        } else if (arg == "--list-checks") {
            for (const auto& c : check_registry())
                std::cout << c->name() << ": " << c->description()
                          << "\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty())
        paths = {"src", "bench", "tests"};

    double lex_s = 0.0;
    Corpus corpus = load_corpus(collect_sources(paths), opts.jobs, &lex_s);
    RunResult result = run_checks(corpus, opts);
    result.stats.lex_s = lex_s;

    // Stats go to stderr: stdout stays byte-identical across runs and
    // job counts (timings are wall-clock and never reproducible).
    if (print_stats)
        write_stats(std::cerr, result);

    if (!write_baseline_path.empty()) {
        std::ofstream out(write_baseline_path, std::ios::trunc);
        if (!out)
            shiftpar::fatal("cannot write baseline '" +
                            write_baseline_path + "'");
        write_baseline(out, corpus, result);
        std::cout << "wrote " << write_baseline_path << " ("
                  << result.findings.size() + result.baselined.size()
                  << " entries)\n";
        return 0;
    }

    if (format == "sarif")
        write_sarif(std::cout, result);
    else
        write_human(std::cout, result);
    return result.clean() ? 0 : 1;
}
