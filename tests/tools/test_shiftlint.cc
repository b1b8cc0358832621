/**
 * @file
 * Fixture suite for shiftlint: one known-bad snippet per check (expected
 * finding), one suppressed variant (expected clean), plus driver-level
 * coverage — SARIF schema shape, baseline round-trip, --fix application,
 * and malformed/stale suppression handling. Snippets live as string
 * literals, so scanning `tests/` with shiftlint itself stays clean (the
 * lexer treats string contents as opaque).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json_checker.h"
#include "driver.h"
#include "util/thread_pool.h"

namespace shiftpar::lint {
namespace {

/** Build an indexed corpus from (path, text) fixture pairs. */
Corpus
make_corpus(std::initializer_list<std::pair<const char*, const char*>>
                files)
{
    Corpus corpus;
    for (const auto& [path, text] : files)
        corpus.files.push_back(lex_source(path, text));
    corpus.build_index();
    return corpus;
}

/** Run one named check over `corpus` (no suppressions/baseline). */
std::vector<Finding>
run_one(Corpus& corpus, const std::string& check)
{
    Options opts;
    opts.checks = {check};
    return run_checks(corpus, opts).findings;
}

// ---------------------------------------------------------------- lexer

TEST(ShiftlintLexer, StringsCommentsAndPreprocessorAreOpaque)
{
    // rand() appears only in a string, a comment, and an #include-like
    // directive: none of them are code.
    auto corpus = make_corpus({{"a.cc", R"fix(
#include <rand()>
// rand() in a comment
const char* s = "rand()";
)fix"}});
    EXPECT_TRUE(run_one(corpus, "nondet-source").empty());
}

TEST(ShiftlintLexer, TracksLineNumbers)
{
    auto corpus = make_corpus({{"a.cc", "\n\nint x = rand();\n"}});
    const auto findings = run_one(corpus, "nondet-source");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 3);
    EXPECT_EQ(findings[0].check, "nondet-source");
}

// ------------------------------------------------------- nondet-source

TEST(ShiftlintNondetSource, FlagsRngAndClockAndGetenv)
{
    auto corpus = make_corpus({{"src/core/x.cc", R"(
int a() { return rand(); }
std::random_device rd;
auto t = std::chrono::system_clock::now();
const char* e = getenv("X");
std::map<Foo*, int> by_ptr;
)"}});
    const auto findings = run_one(corpus, "nondet-source");
    EXPECT_EQ(findings.size(), 5u);
}

TEST(ShiftlintNondetSource, AllowsGetenvInUtil)
{
    auto corpus = make_corpus(
        {{"src/util/logging.cc", "const char* e = getenv(\"L\");\n"}});
    EXPECT_TRUE(run_one(corpus, "nondet-source").empty());
}

TEST(ShiftlintNondetSource, AllowsMemberFunctionsNamedLikeBanned)
{
    auto corpus = make_corpus({{"a.cc", R"(
double t = histogram.time();
auto c = obj->clock();
std::map<int, Foo*> value_is_pointer_ok;
)"}});
    EXPECT_TRUE(run_one(corpus, "nondet-source").empty());
}

TEST(ShiftlintNondetSource, SuppressionSilencesWithReason)
{
    auto corpus = make_corpus({{"a.cc", R"(
// shiftlint-allow(nondet-source): demo binary, not a simulation path
int a() { return rand(); }
)"}});
    Options opts;
    opts.checks = {"nondet-source"};
    const auto result = run_checks(corpus, opts);
    EXPECT_TRUE(result.findings.empty());
    ASSERT_EQ(result.suppressed.size(), 1u);
    EXPECT_EQ(result.suppressed[0].check, "nondet-source");
}

// ------------------------------------------------------ unordered-emit

TEST(ShiftlintUnorderedEmit, FlagsIterationInEmittingFunction)
{
    auto corpus = make_corpus({{"src/x.cc", R"(
void dump(Sink* sink, std::unordered_map<int, int>& m)
{
    for (const auto& [k, v] : m)
        sink->on_instant(0, 0.0, "x");
}
)"}});
    const auto findings = run_one(corpus, "unordered-emit");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("dump"), std::string::npos);
}

TEST(ShiftlintUnorderedEmit, MemberDeclaredInHeaderIteratedInCc)
{
    auto corpus = make_corpus(
        {{"src/m.h", "struct M { std::unordered_map<long, long> "
                     "tallies_; };\n"},
         {"src/m.cc", R"(
void M::report(CsvWriter& csv)
{
    for (const auto& [k, v] : tallies_)
        csv.add_row({k, v});
}
)"}});
    EXPECT_EQ(run_one(corpus, "unordered-emit").size(), 1u);
}

TEST(ShiftlintUnorderedEmit, CleanWhenNoSinkInFunction)
{
    auto corpus = make_corpus({{"src/x.cc", R"(
long total(std::unordered_map<int, long>& m)
{
    long sum = 0;
    for (const auto& [k, v] : m)
        sum += v;   // order-independent reduction, no emission
    return sum;
}
)"}});
    EXPECT_TRUE(run_one(corpus, "unordered-emit").empty());
}

TEST(ShiftlintUnorderedEmit, SuppressedWithJustification)
{
    auto corpus = make_corpus({{"src/x.cc", R"(
void dump(Sink* sink, std::unordered_map<int, int>& m)
{
    // shiftlint-allow(unordered-emit): selection below is a total order
    for (const auto& [k, v] : m)
        sink->on_instant(0, 0.0, "x");
}
)"}});
    Options opts;
    opts.checks = {"unordered-emit"};
    const auto result = run_checks(corpus, opts);
    EXPECT_TRUE(result.findings.empty());
    EXPECT_EQ(result.suppressed.size(), 1u);
}

// -------------------------------------------------- trace-span-balance

TEST(ShiftlintSpanBalance, BeginWithoutEndInTu)
{
    auto corpus = make_corpus({{"src/e.cc", R"(
void straggle(Sink* s) { s->emit(FaultKind::kStraggleStart); }
)"}});
    const auto findings = run_one(corpus, "trace-span-balance");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("kStraggleEnd"),
              std::string::npos);
}

TEST(ShiftlintSpanBalance, BalancedTuAndHeadersAreClean)
{
    auto corpus = make_corpus(
        {{"src/e.cc", "void f(Sink* s) { s->emit(kStraggleStart); "
                      "s->emit(kStraggleEnd); }\n"},
         // Headers declare both enumerators; never flagged.
         {"src/trace.h", "enum class K { kStraggleStart };\n"}});
    EXPECT_TRUE(run_one(corpus, "trace-span-balance").empty());
}

TEST(ShiftlintSpanBalance, DrainStartWithoutEndFlagged)
{
    auto corpus = make_corpus({{"src/e.cc", R"(
void drain(Sink* s) { s->emit(FaultKind::kDrainStart); }
)"}});
    const auto findings = run_one(corpus, "trace-span-balance");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("kDrainEnd"), std::string::npos);
}

TEST(ShiftlintSpanBalance, GenericBeginEndConvention)
{
    auto corpus = make_corpus(
        {{"src/e.cc", "void f(Sink* s) { s->emit(kBeginTransfer); }\n"}});
    const auto findings = run_one(corpus, "trace-span-balance");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("kEndTransfer"),
              std::string::npos);
}

// --------------------------------------------- struct-serializer-drift

TEST(ShiftlintStructDrift, NewFieldMissingFromWriter)
{
    auto corpus = make_corpus(
        {{"src/fault/fault_schedule.h",
          "struct FaultStats { long failures = 0; long brand_new = 0; "
          "};\n"},
         {"src/obs/report_json.cc", R"(
void ReportJson::write()
{
    w.kv("failures", run.faults->failures);
}
)"}});
    const auto findings = run_one(corpus, "struct-serializer-drift");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("brand_new"), std::string::npos);
}

TEST(ShiftlintStructDrift, OverloadStatsFieldMissingFromWriter)
{
    // The lifecycle counters are watched against the report writer the
    // same way FaultStats is: a counter added to OverloadStats but not
    // serialized would silently vanish from every run report.
    auto corpus = make_corpus(
        {{"src/engine/overload.h",
          "struct OverloadStats { long expired = 0; long unreported = 0; "
          "};\n"},
         {"src/obs/report_json.cc", R"(
void ReportJson::write()
{
    w.kv("expired", run.overload->expired);
}
)"}});
    const auto findings = run_one(corpus, "struct-serializer-drift");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("unreported"), std::string::npos);
}

TEST(ShiftlintStructDrift, DelegatedMergeCoversFields)
{
    // Metrics::merge delegates to add_record; one level of same-file
    // call expansion must count the delegate's field accesses.
    auto corpus = make_corpus(
        {{"src/engine/metrics.h",
          "class Metrics { long total_ = 0; long peak_ = 0; };\n"},
         {"src/engine/metrics.cc", R"(
void Metrics::add_record(long v) { total_ += v; peak_ = v; }
void Metrics::merge(const Metrics& o) { add_record(o.total()); }
)"}});
    EXPECT_TRUE(run_one(corpus, "struct-serializer-drift").empty());
}

TEST(ShiftlintStructDrift, MergeMissingFieldFlagged)
{
    auto corpus = make_corpus(
        {{"src/engine/metrics.h",
          "class Metrics { long total_ = 0; long forgotten_ = 0; };\n"},
         {"src/engine/metrics.cc",
          "void Metrics::merge(const Metrics& o) { total_ += o.total_; "
          "}\n"}});
    const auto findings = run_one(corpus, "struct-serializer-drift");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("forgotten_"), std::string::npos);
    EXPECT_NE(findings[0].message.find("aggregation"), std::string::npos);
}

TEST(ShiftlintStructDrift, CalibrationReportFieldMissingFromWriter)
{
    // The calibration-report structs are watched against their JSON
    // serializer: a field added to CalibrationReport but never written
    // would silently vanish from the shiftpar.calibration document.
    auto corpus = make_corpus(
        {{"tools/calibrate/calibrate.h",
          "struct CalibrationReport { long total_samples = 0; "
          "double shiny_new_stat = 0.0; };\n"},
         {"tools/calibrate/calibrate.cc", R"(
void write_calibration_report(const CalibrationReport& report,
                              std::ostream& os)
{
    w.kv("total_samples", report.total_samples);
}
)"}});
    const auto findings = run_one(corpus, "struct-serializer-drift");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("shiny_new_stat"),
              std::string::npos);
}

TEST(ShiftlintStructDrift, KernelClassFitFullyWrittenIsClean)
{
    auto corpus = make_corpus(
        {{"tools/calibrate/calibrate.h",
          "struct KernelClassFit { long samples = 0; double alpha = 0.0; "
          "double r2 = 0.0; };\n"},
         {"tools/calibrate/calibrate.cc", R"(
void write_calibration_report(const CalibrationReport& report,
                              std::ostream& os)
{
    w.kv("samples", fit.samples);
    w.kv("alpha", fit.alpha);
    w.kv("r2", fit.r2);
}
)"}});
    EXPECT_TRUE(run_one(corpus, "struct-serializer-drift").empty());
}

// ----------------------------------------------------------- sim-contract

TEST(ShiftlintSimContract, AdvanceToMutatingClusterFlagged)
{
    auto corpus = make_corpus({{"src/engine/e.cc", R"(
bool Engine::advance_to(double t)
{
    cluster_->post(t + 1.0, [] {});
    return true;
}
)"}});
    const auto findings = run_one(corpus, "sim-contract");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("advance_to"), std::string::npos);
}

TEST(ShiftlintSimContract, AdvanceToNotifyingReadyChangeFlagged)
{
    auto corpus = make_corpus({{"src/engine/e.cc", R"(
bool Engine::advance_to(double t)
{
    now_ = t;
    notify_ready_changed();
    return true;
}
)"}});
    const auto findings = run_one(corpus, "sim-contract");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("notify_ready_changed"),
              std::string::npos);
}

TEST(ShiftlintSimContract, AdvanceToPokingReadyIndexFlagged)
{
    auto corpus = make_corpus({{"src/engine/e.cc", R"(
bool Engine::advance_to(double t)
{
    cluster_->notify_ready(this);
    return true;
}
)"}});
    const auto findings = run_one(corpus, "sim-contract");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("notify_ready"), std::string::npos);
}

TEST(ShiftlintSimContract, NotifyOutsideAdvanceToIsClean)
{
    auto corpus = make_corpus({{"src/engine/e.cc", R"(
void Engine::submit(Request r)
{
    waiting_.push_back(r);
    notify_ready_changed();
}
)"}});
    EXPECT_TRUE(run_one(corpus, "sim-contract").empty());
}

TEST(ShiftlintSimContract, AdvanceToReadingClockIsClean)
{
    auto corpus = make_corpus({{"src/engine/e.cc", R"(
bool Engine::advance_to(double t)
{
    const double now = cluster_->now();
    return now <= t;
}
)"}});
    EXPECT_TRUE(run_one(corpus, "sim-contract").empty());
}

TEST(ShiftlintSimContract, PostCapturingIteratorFlagged)
{
    auto corpus = make_corpus({{"src/core/d.cc", R"(
void schedule(Queue& q, std::map<long, long>& m)
{
    auto it = m.find(7);
    q.post(1.0, [it] { consume(it->second); });
}
)"}});
    const auto findings = run_one(corpus, "sim-contract");
    ASSERT_GE(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("iterator"), std::string::npos);
}

TEST(ShiftlintSimContract, PostCapturingKeyIsClean)
{
    auto corpus = make_corpus({{"src/core/d.cc", R"(
void schedule(Queue& q, std::map<long, long>& m)
{
    auto it = m.find(7);
    const long key = it->first;
    q.post(1.0, [key] { consume(key); });
}
)"}});
    EXPECT_TRUE(run_one(corpus, "sim-contract").empty());
}

// ------------------------------------------------------ driver plumbing

TEST(ShiftlintDriver, MalformedSuppressionIsAFinding)
{
    auto corpus = make_corpus({{"a.cc", R"(
// shiftlint-allow(nondet-source) missing the reason colon
int a() { return rand(); }
)"}});
    Options opts;
    const auto result = run_checks(corpus, opts);
    bool saw_bad = false;
    for (const auto& f : result.findings)
        saw_bad |= f.check == "bad-suppression";
    EXPECT_TRUE(saw_bad);
    // The rand() finding is NOT suppressed by a malformed comment.
    bool saw_rand = false;
    for (const auto& f : result.findings)
        saw_rand |= f.check == "nondet-source";
    EXPECT_TRUE(saw_rand);
}

TEST(ShiftlintDriver, StaleSuppressionReported)
{
    auto corpus = make_corpus({{"a.cc", R"(
// shiftlint-allow(nondet-source): nothing here actually trips it
int a() { return 4; }
)"}});
    Options opts;
    const auto result = run_checks(corpus, opts);
    EXPECT_TRUE(result.findings.empty());
    ASSERT_EQ(result.stale_suppressions.size(), 1u);
    EXPECT_NE(result.stale_suppressions[0].find("a.cc:2"),
              std::string::npos);
}

TEST(ShiftlintDriver, FixRewritesSystemClockOnDisk)
{
    const std::string path =
        ::testing::TempDir() + "/shiftlint_fix_probe.cc";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "auto t = std::chrono::system_clock::now();\n";
    }
    Corpus corpus = load_corpus({path});
    Options opts;
    opts.apply_fixes = true;
    const auto result = run_checks(corpus, opts);
    EXPECT_EQ(result.fixes_applied, 1);
    EXPECT_TRUE(result.findings.empty());  // fixed == resolved

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("steady_clock"), std::string::npos);
    EXPECT_EQ(ss.str().find("system_clock"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ShiftlintDriver, BaselineRoundTripSilencesKnownFindings)
{
    const char* bad = "int a() { return rand(); }\n";
    const std::string base_path =
        ::testing::TempDir() + "/shiftlint_baseline_probe.txt";
    {
        auto corpus = make_corpus({{"a.cc", bad}});
        Options opts;
        const auto result = run_checks(corpus, opts);
        ASSERT_EQ(result.findings.size(), 1u);
        std::ofstream out(base_path, std::ios::trunc);
        write_baseline(out, corpus, result);
    }
    {
        auto corpus = make_corpus({{"a.cc", bad}});
        Options opts;
        opts.baseline_path = base_path;
        const auto result = run_checks(corpus, opts);
        EXPECT_TRUE(result.findings.empty());
        EXPECT_EQ(result.baselined.size(), 1u);
    }
    std::remove(base_path.c_str());
}

// ------------------------------------------------------------- SARIF

TEST(ShiftlintSarif, DocumentShapeAndResultFields)
{
    auto corpus = make_corpus({{"src/x.cc",
                                "int a() { return rand(); }\n"}});
    Options opts;
    const auto result = run_checks(corpus, opts);
    ASSERT_EQ(result.findings.size(), 1u);

    std::ostringstream os;
    write_sarif(os, result);
    const auto doc = shiftpar::testing::parse_json(os.str());

    EXPECT_EQ(doc.at("version").str(), "2.1.0");
    const auto& runs = doc.at("runs").arr();
    ASSERT_EQ(runs.size(), 1u);
    const auto& driver = runs[0].at("tool").at("driver");
    EXPECT_EQ(driver.at("name").str(), "shiftlint");
    // Every registered check appears as a rule.
    EXPECT_EQ(driver.at("rules").arr().size(), check_registry().size());

    const auto& results = runs[0].at("results").arr();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].at("ruleId").str(), "nondet-source");
    EXPECT_EQ(results[0].at("level").str(), "error");
    const auto& loc =
        results[0].at("locations").arr()[0].at("physicalLocation");
    EXPECT_EQ(loc.at("artifactLocation").at("uri").str(), "src/x.cc");
    EXPECT_EQ(loc.at("region").at("startLine").num(), 1.0);
}

// ----------------------------------------------------- analysis layer

TEST(ShiftlintAnalysis, CallInsideConditionIsNotADefinition)
{
    // `std::isfinite(d)) {` — a call nested in an if-condition followed
    // by the statement body — must not parse as a definition of
    // `std::isfinite` (which would graft the if-body onto a phantom
    // call-graph node).
    auto corpus = make_corpus({{"src/e.cc", R"(
bool Engine::advance_to(double t)
{
    if (t > 0.0 && std::isfinite(t)) {
        now_ = t;
        return true;
    }
    return false;
}
)"}});
    for (const auto& fn : corpus.functions)
        EXPECT_NE(fn.name, "isfinite");
    ASSERT_EQ(corpus.functions.size(), 1u);
    EXPECT_EQ(corpus.functions[0].qualified, "Engine::advance_to");
}

TEST(ShiftlintAnalysis, InClassDefinitionGetsOwnerAttributed)
{
    auto corpus = make_corpus({{"src/b.h", R"(
class Box
{
  public:
    void set(int v) { val_ = v; }

  private:
    int val_ = 0;
};
)"}});
    ASSERT_EQ(corpus.functions.size(), 1u);
    EXPECT_EQ(corpus.functions[0].owner, "Box");
    EXPECT_EQ(corpus.functions[0].qualified, "Box::set");
}

// ------------------------------------------- sim-contract-interproc

TEST(ShiftlintInterproc, AdvanceToNotifyingThroughHelperFlagged)
{
    // Regression fixture for the in-tree bug this check caught: the
    // engine's advance_to jumped the clock and called expire_now, which
    // re-announced the ready time mid-grant.
    auto corpus = make_corpus({{"src/engine/e.cc", R"(
bool Engine::advance_to(double t)
{
    now_ = t;
    return expire_now();
}
bool Engine::expire_now()
{
    expired_ += 1;
    notify_ready_changed();
    return true;
}
)"}});
    const auto findings = run_one(corpus, "sim-contract-interproc");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("Engine::expire_now"),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("notify_ready_changed"),
              std::string::npos);
}

TEST(ShiftlintInterproc, MutationReachedAcrossTusFlagged)
{
    // The helper lives in another TU; the symbol index resolves the
    // unqualified call through the caller's owning class.
    auto corpus = make_corpus(
        {{"src/engine/a.cc", R"(
bool Engine::advance_to(double t)
{
    flush_queue(t);
    return true;
}
)"},
         {"src/engine/b.cc", R"(
void Engine::flush_queue(double t)
{
    cluster_->post(t, [] {});
}
)"}});
    const auto findings = run_one(corpus, "sim-contract-interproc");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("Engine::flush_queue"),
              std::string::npos);
}

TEST(ShiftlintInterproc, UnresolvableCalleeFailsOpen)
{
    // `mystery_helper` has no definition in the corpus: no edge, no
    // finding — the check never guesses about out-of-corpus code.
    auto corpus = make_corpus({{"src/engine/e.cc", R"(
bool Engine::advance_to(double t)
{
    mystery_helper(t);
    return true;
}
)"}});
    EXPECT_TRUE(run_one(corpus, "sim-contract-interproc").empty());
}

TEST(ShiftlintInterproc, QualifiedCallNeverFallsBackToLocalName)
{
    // `std::min` must not resolve to an in-corpus free function named
    // `min` that happens to mutate the cluster.
    auto corpus = make_corpus(
        {{"src/engine/a.cc", R"(
bool Engine::advance_to(double t)
{
    const double w = std::min(t, 1.0);
    return w > 0.0;
}
)"},
         {"src/other/m.cc", R"(
double min(double a, double b)
{
    cluster_->post(a, [] {});
    return a < b ? a : b;
}
)"}});
    EXPECT_TRUE(run_one(corpus, "sim-contract-interproc").empty());
}

TEST(ShiftlintInterproc, BenignHelperChainIsClean)
{
    auto corpus = make_corpus({{"src/engine/e.cc", R"(
bool Engine::advance_to(double t)
{
    return tick(t);
}
bool Engine::tick(double t)
{
    now_ = t;
    return true;
}
)"}});
    EXPECT_TRUE(run_one(corpus, "sim-contract-interproc").empty());
}

TEST(ShiftlintInterproc, SuppressedAtCallSiteWithReason)
{
    auto corpus = make_corpus({{"src/engine/e.cc", R"(
bool Engine::advance_to(double t)
{
    // shiftlint-allow(sim-contract-interproc): lockstep surrogate only
    return expire_now();
}
bool Engine::expire_now()
{
    notify_ready_changed();
    return true;
}
)"}});
    Options opts;
    opts.checks = {"sim-contract-interproc"};
    const auto result = run_checks(corpus, opts);
    EXPECT_TRUE(result.findings.empty());
    EXPECT_EQ(result.suppressed.size(), 1u);
}

// --------------------------------------------------------- guarded-by

TEST(ShiftlintGuardedBy, UnlockedTouchFlagged)
{
    // Regression fixture for the in-tree bug this check caught:
    // ReportJson::set_title wrote the title without taking the mutex
    // every other method locks.
    auto corpus = make_corpus({{"src/obs/r.h", R"(
class ReportJson
{
  public:
    void set_title(const std::string& t) { title_ = t; }
    std::size_t num_runs() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return runs_.size();
    }

  private:
    mutable std::mutex mutex_;
    std::string title_;      // shiftlint-guarded(mutex_)
    std::vector<Run> runs_;  // shiftlint-guarded(mutex_)
};
)"}});
    const auto findings = run_one(corpus, "guarded-by");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("title_"), std::string::npos);
    EXPECT_NE(findings[0].message.find("set_title"), std::string::npos);
}

TEST(ShiftlintGuardedBy, LockingCallersOnEveryPathCoverHelper)
{
    // The private helper never locks, but its only callers do — the
    // chrome-trace "caller holds mutex_" idiom. Out-of-line definitions
    // in a separate TU exercise the cross-TU caller walk.
    auto corpus = make_corpus(
        {{"src/obs/t.h", R"(
class Sink
{
  public:
    void add(int v);
    void merge(const Sink& o);

  private:
    void append_unlocked(int v);
    std::mutex mu_;
    std::vector<int> events_;  // shiftlint-guarded(mu_)
};
)"},
         {"src/obs/t.cc", R"(
void Sink::add(int v)
{
    std::lock_guard<std::mutex> lock(mu_);
    append_unlocked(v);
}
void Sink::merge(const Sink& o)
{
    std::scoped_lock lock(mu_, o.mu_);
    append_unlocked(0);
}
void Sink::append_unlocked(int v)
{
    events_.push_back(v);
}
)"}});
    EXPECT_TRUE(run_one(corpus, "guarded-by").empty());
}

TEST(ShiftlintGuardedBy, OneUnlockedCallerPathFlagged)
{
    auto corpus = make_corpus({{"src/obs/t.h", R"(
class Sink
{
  public:
    void add(int v)
    {
        std::lock_guard<std::mutex> lock(mu_);
        append_unlocked(v);
    }
    void add_fast(int v) { append_unlocked(v); }

  private:
    void append_unlocked(int v) { events_.push_back(v); }
    std::mutex mu_;
    std::vector<int> events_;  // shiftlint-guarded(mu_)
};
)"}});
    const auto findings = run_one(corpus, "guarded-by");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("append_unlocked"),
              std::string::npos);
}

TEST(ShiftlintGuardedBy, ConstructorIsExempt)
{
    auto corpus = make_corpus({{"src/obs/t.h", R"(
class Sink
{
  public:
    Sink() { events_.reserve(64); }

  private:
    std::mutex mu_;
    std::vector<int> events_;  // shiftlint-guarded(mu_)
};
)"}});
    EXPECT_TRUE(run_one(corpus, "guarded-by").empty());
}

TEST(ShiftlintGuardedBy, UnboundAnnotationFlagged)
{
    auto corpus = make_corpus({{"src/obs/t.h", R"(
class Sink
{
  private:
    std::mutex mu_;
    // shiftlint-guarded(mu_)

    std::vector<int> events_;
};
)"}});
    const auto findings = run_one(corpus, "guarded-by");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("binds to no data member"),
              std::string::npos);
}

TEST(ShiftlintGuardedBy, SuppressedTouchWithReason)
{
    auto corpus = make_corpus({{"src/obs/t.h", R"(
class Sink
{
  public:
    int peek() const
    {
        // shiftlint-allow(guarded-by): racy read is advisory only
        return events_.empty() ? 0 : 1;
    }

  private:
    std::mutex mu_;
    std::vector<int> events_;  // shiftlint-guarded(mu_)
};
)"}});
    Options opts;
    opts.checks = {"guarded-by"};
    const auto result = run_checks(corpus, opts);
    EXPECT_TRUE(result.findings.empty());
    EXPECT_EQ(result.suppressed.size(), 1u);
}

// ------------------------------------------------ outcome-conservation

TEST(ShiftlintOutcome, AssignmentCounterAndStatsTogetherIsClean)
{
    auto corpus = make_corpus({{"src/engine/r.cc", R"(
void Router::expire(Flight& f)
{
    f.outcome = FlightOutcome::kExpired;
    count_outcome("expired");
    ++overload_stats_.expired;
}
)"}});
    EXPECT_TRUE(run_one(corpus, "outcome-conservation").empty());
}

TEST(ShiftlintOutcome, CounterReachedThroughCalleeIsClean)
{
    auto corpus = make_corpus({{"src/engine/r.cc", R"(
void Router::expire(Flight& f)
{
    f.outcome = FlightOutcome::kExpired;
    record_expiry();
}
void Router::record_expiry()
{
    count_outcome("expired");
    ++overload_stats_.expired;
}
)"}});
    EXPECT_TRUE(run_one(corpus, "outcome-conservation").empty());
}

TEST(ShiftlintOutcome, AssignmentWithoutCounterFlagged)
{
    auto corpus = make_corpus({{"src/engine/r.cc", R"(
void Router::expire(Flight& f)
{
    f.outcome = FlightOutcome::kExpired;
    ++overload_stats_.expired;
}
)"}});
    const auto findings = run_one(corpus, "outcome-conservation");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("count_outcome"),
              std::string::npos);
}

TEST(ShiftlintOutcome, AssignmentWithoutStatsUpdateFlagged)
{
    auto corpus = make_corpus({{"src/engine/r.cc", R"(
void Router::shed(Flight& f)
{
    f.outcome = FlightOutcome::kShed;
    count_outcome("shed");
}
)"}});
    const auto findings = run_one(corpus, "outcome-conservation");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("'shed' stats"),
              std::string::npos);
}

TEST(ShiftlintOutcome, CounterWithoutTransitionFlagged)
{
    // Reverse direction: the counter books a terminal outcome no
    // flight-table transition backs up.
    auto corpus = make_corpus({{"src/engine/r.cc", R"(
void Router::on_loss(Flight& f)
{
    count_outcome("lost");
    ++fault_stats_.lost;
}
)"}});
    const auto findings = run_one(corpus, "outcome-conservation");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("kLost"), std::string::npos);
}

TEST(ShiftlintOutcome, NonTerminalCounterStringsIgnored)
{
    auto corpus = make_corpus({{"src/engine/r.cc", R"(
void Router::on_hedge(Flight& f)
{
    count_outcome("hedge_lost");
}
)"}});
    EXPECT_TRUE(run_one(corpus, "outcome-conservation").empty());
}

TEST(ShiftlintOutcome, SuppressedWithReason)
{
    auto corpus = make_corpus({{"src/engine/r.cc", R"(
void Router::expire(Flight& f)
{
    // shiftlint-allow(outcome-conservation): counted by the caller
    f.outcome = FlightOutcome::kExpired;
}
)"}});
    Options opts;
    opts.checks = {"outcome-conservation"};
    const auto result = run_checks(corpus, opts);
    EXPECT_TRUE(result.findings.empty());
    EXPECT_EQ(result.suppressed.size(), 2u);  // counter + stats findings
}

// ------------------------------------------------------ rng-discipline

TEST(ShiftlintRng, ByValueParameterFlagged)
{
    auto corpus = make_corpus({{"src/w.cc", R"(
std::vector<double> arrivals(Rng rng, double rate)
{
    return {rng.uniform() / rate};
}
)"}});
    const auto findings = run_one(corpus, "rng-discipline");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("by value"), std::string::npos);
}

TEST(ShiftlintRng, ReferenceAndPointerParametersClean)
{
    auto corpus = make_corpus({{"src/w.cc", R"(
double draw(Rng& rng) { return rng.uniform(); }
double draw2(std::mt19937* gen) { return 0.0; }
double draw3(const Rng& rng, Rng&& scratch) { return 0.0; }
)"}});
    EXPECT_TRUE(run_one(corpus, "rng-discipline").empty());
}

TEST(ShiftlintRng, CopyInitializationFlagged)
{
    auto corpus = make_corpus({{"src/w.cc", R"(
void twice(Rng& rng)
{
    Rng local = rng;
    local.uniform();
}
)"}});
    const auto findings = run_one(corpus, "rng-discipline");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("fork"), std::string::npos);
}

TEST(ShiftlintRng, TestMacroSuiteNamedRngIsClean)
{
    // Regression: TEST(Rng, Foo) { ... } parses as a braced definition
    // whose "parameter" is the suite label, not a by-value RNG.
    auto corpus = make_corpus({{"tests/t.cc", R"(
TEST(Rng, SameSeedSameStream)
{
    Rng a(123);
    Rng b(123);
}
)"}});
    EXPECT_TRUE(run_one(corpus, "rng-discipline").empty());
}

TEST(ShiftlintRng, SeedConstructionIsClean)
{
    auto corpus = make_corpus({{"src/w.cc", R"(
void fresh()
{
    Rng rng(2026);
    std::mt19937 gen{42};
}
)"}});
    EXPECT_TRUE(run_one(corpus, "rng-discipline").empty());
}

TEST(ShiftlintRng, SuppressedDeliberateForkWithReason)
{
    auto corpus = make_corpus({{"bench/b.cc", R"(
void both(Rng& rng)
{
    // shiftlint-allow(rng-discipline): deliberate same-stream replay
    Rng local = rng;
    local.uniform();
}
)"}});
    Options opts;
    opts.checks = {"rng-discipline"};
    const auto result = run_checks(corpus, opts);
    EXPECT_TRUE(result.findings.empty());
    EXPECT_EQ(result.suppressed.size(), 1u);
}

// ---------------------------------------- span balance across TUs

TEST(ShiftlintSpanBalance, PairSplitAcrossTusIsClean)
{
    // v2 lifts the pairing corpus-wide: the end emitted from a different
    // TU satisfies the begin.
    auto corpus = make_corpus(
        {{"src/a.cc",
          "void f(Sink* s) { s->emit(FaultKind::kStraggleStart); }\n"},
         {"src/b.cc",
          "void g(Sink* s) { s->emit(FaultKind::kStraggleEnd); }\n"}});
    EXPECT_TRUE(run_one(corpus, "trace-span-balance").empty());
}

// ---------------------------------------------- driver: jobs & stats

TEST(ShiftlintDriver, MalformedGuardAnnotationIsAFinding)
{
    auto corpus = make_corpus({{"src/t.h", R"(
class Sink
{
  private:
    std::mutex mu_;
    std::vector<int> events_;  // shiftlint-guarded()
};
)"}});
    Options opts;
    const auto result = run_checks(corpus, opts);
    bool saw_bad = false;
    for (const auto& f : result.findings)
        saw_bad |= f.check == "bad-annotation";
    EXPECT_TRUE(saw_bad);
}

TEST(ShiftlintDriver, JobsOutputByteIdenticalToSequential)
{
    // A mixed-findings fixture tree, linted at --jobs 1 and --jobs 8:
    // human and SARIF renderings must match byte-for-byte (parallel
    // lexing fills pre-assigned slots; checks merge in registry order).
    const std::string dir = ::testing::TempDir() + "/shiftlint_jobs";
    std::filesystem::create_directories(dir);
    const std::pair<const char*, const char*> files[] = {
        {"a.cc", "int a() { return rand(); }\n"},
        {"b.cc", "auto t = std::chrono::system_clock::now();\n"},
        {"c.cc", "void f(Sink* s) { s->emit(FaultKind::kDrainStart); "
                 "}\n"},
        {"d.cc", "bool Engine::advance_to(double t) { return "
                 "expire_now(); }\n"
                 "bool Engine::expire_now() { notify_ready_changed(); "
                 "return true; }\n"},
        {"e.cc", "void twice(Rng& rng) { Rng local = rng; }\n"},
        {"f.cc", "int clean_file() { return 7; }\n"},
    };
    std::vector<std::string> paths;
    for (const auto& [name, text] : files) {
        paths.push_back(dir + "/" + name);
        std::ofstream out(paths.back(), std::ios::trunc);
        out << text;
    }

    const auto render = [&](int jobs) {
        Corpus corpus = load_corpus(paths, jobs);
        Options opts;
        opts.jobs = jobs;
        const RunResult result = run_checks(corpus, opts);
        std::ostringstream human, sarif;
        write_human(human, result);
        write_sarif(sarif, result);
        return human.str() + "\x01" + sarif.str();
    };

    const std::string seq = render(1);
    ASSERT_NE(seq.find("[nondet-source]"), std::string::npos);
    ASSERT_NE(seq.find("[sim-contract-interproc]"), std::string::npos);
    for (int round = 0; round < 3; ++round)
        EXPECT_EQ(render(8), seq) << "round " << round;

    for (const auto& p : paths)
        std::remove(p.c_str());
}

TEST(ShiftlintDriver, PoolSizeNeverExceedsTaskCount)
{
    // Pure arithmetic: no pool is built, so the huge values start no
    // threads.
    EXPECT_EQ(pool_size(1, 50), 1);
    EXPECT_EQ(pool_size(4, 50), 4);
    EXPECT_EQ(pool_size(8, 3), 3);
    EXPECT_EQ(pool_size(2000000000, 6), 6);
    EXPECT_EQ(pool_size(2000000000, 0), 1);
    const int hw = util::ThreadPool::default_concurrency();
    EXPECT_EQ(pool_size(0, 1000000), hw);
    EXPECT_EQ(pool_size(0, 1), 1);
}

TEST(ShiftlintDriver, StatsReportCoversEveryCheck)
{
    auto corpus = make_corpus(
        {{"a.cc", "int a() { return rand(); }\n"},
         {"b.cc", "int b() { return 2; }\n"}});
    Options opts;
    RunResult result = run_checks(corpus, opts);
    result.stats.lex_s = 0.001;

    EXPECT_EQ(result.stats.files, 2u);
    ASSERT_EQ(result.stats.checks.size(), check_registry().size());
    std::size_t raw_total = 0;
    for (const auto& c : result.stats.checks)
        raw_total += c.findings;
    EXPECT_GE(raw_total, 1u);

    std::ostringstream os;
    write_stats(os, result);
    const std::string text = os.str();
    EXPECT_NE(text.find("shiftlint stats:"), std::string::npos);
    EXPECT_NE(text.find("files/s"), std::string::npos);
    for (const auto& check : check_registry())
        EXPECT_NE(text.find(check->name()), std::string::npos);
}

} // namespace
} // namespace shiftpar::lint
