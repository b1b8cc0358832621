/**
 * @file
 * The shiftlint driver: file collection, check execution, suppression and
 * baseline filtering, fix application, and output rendering.
 *
 * Split from `main.cc` so the fixture tests (tests/tools) can run checks
 * over in-memory snippets and assert on the classified results without
 * spawning the binary.
 */

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "check.h"

namespace shiftpar::lint {

/** Driver configuration (mirrors the CLI flags). */
struct Options
{
    /** Check names to run; empty = all registered checks. */
    std::vector<std::string> checks;

    /** Baseline file to filter against; empty = no baseline. */
    std::string baseline_path;

    /** Apply mechanical fixes in place. */
    bool apply_fixes = false;

    /**
     * Worker threads for lexing and check execution (0 = hardware
     * concurrency). Results are committed in path / registration order,
     * so output is byte-identical at any job count.
     */
    int jobs = 1;
};

/** Cost breakdown of one lint run (printed by --stats, to stderr). */
struct LintStats
{
    std::size_t files = 0;
    std::size_t functions = 0;   ///< symbol-index size
    std::size_t structs = 0;
    std::size_t callgraph_edges = 0;
    std::size_t unresolved_calls = 0;  ///< fail-open call sites
    double lex_s = 0.0;    ///< read + lex + per-file index
    double index_s = 0.0;  ///< symbol index + call graph build
    double total_s = 0.0;  ///< run_checks wall time

    /** Per-check (name, seconds, raw finding count), registry order. */
    struct CheckCost
    {
        std::string check;
        double seconds = 0.0;
        std::size_t findings = 0;
    };
    std::vector<CheckCost> checks;
};

/** Classified results of one lint run. */
struct RunResult
{
    std::vector<Finding> findings;    ///< actionable (fail the run)
    std::vector<Finding> suppressed;  ///< matched an inline allow-comment
    std::vector<Finding> baselined;   ///< matched the baseline file

    /** Inline allow-comments that matched no finding (stale). */
    std::vector<std::string> stale_suppressions;

    /** Number of fix edits applied (when Options::apply_fixes). */
    int fixes_applied = 0;

    /** Cost breakdown (check timings; index sizes). */
    LintStats stats;

    bool clean() const { return findings.empty(); }
};

/**
 * Recursively collect `.cc`/`.h` files under each path (a path may also
 * name a single file). Results are sorted for deterministic output.
 */
std::vector<std::string> collect_sources(
    const std::vector<std::string>& paths);

/**
 * @return the worker count for `tasks` independent tasks at `--jobs`
 * value `jobs` (0 = hardware concurrency): never more workers than
 * tasks, so a huge `--jobs` starts no idle threads (the same cap as the
 * benches' sweep runner).
 */
int pool_size(int jobs, std::size_t tasks);

/** Lex `paths` from disk into a corpus. fatal() on unreadable files.
 *  `jobs` > 1 lexes in parallel; files land in path order regardless. */
Corpus load_corpus(const std::vector<std::string>& paths, int jobs = 1,
                   double* lex_seconds = nullptr);

/** Run the selected checks and classify findings. Fix application edits
 *  the *in-memory* corpus text and rewrites the on-disk files. */
RunResult run_checks(Corpus& corpus, const Options& opts);

/** Render human-readable findings (one line each) plus a summary. */
void write_human(std::ostream& os, const RunResult& result);

/** Render the --stats cost breakdown (per-check timing, files/sec,
 *  index size). Timings are host-wall-clock and go to stderr in the
 *  CLI, keeping stdout byte-identical across runs and job counts. */
void write_stats(std::ostream& os, const RunResult& result);

/** Render SARIF 2.1.0 for CI code-scanning upload. */
void write_sarif(std::ostream& os, const RunResult& result);

/** Serialize `result`'s actionable findings as baseline entries. */
void write_baseline(std::ostream& os, const Corpus& corpus,
                    const RunResult& result);

} // namespace shiftpar::lint
