#include "driver.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>

#include "util/json.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace shiftpar::lint {

namespace {

namespace fs = std::filesystem;

bool
is_source(const fs::path& p)
{
    const auto ext = p.extension().string();
    return ext == ".cc" || ext == ".h" || ext == ".cpp" ||
           ext == ".cxx" || ext == ".hpp";
}

/** FNV-1a 64-bit, used for position-independent baseline keys. */
std::uint64_t
fnv1a(const std::string& s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    for (int i = 15; i >= 0; --i, v >>= 4)
        buf[i] = "0123456789abcdef"[v & 0xf];
    buf[16] = '\0';
    return buf;
}

/** Position-independent identity of a finding: the check, the file, and
 *  the trimmed text of the flagged line (survives reformat-above). */
std::string
baseline_key(const Corpus& corpus, const Finding& f)
{
    std::string line_text;
    for (const auto& file : corpus.files) {
        if (file.path == f.path) {
            line_text = file.line_text(f.line);
            break;
        }
    }
    return f.check + " " + f.path + " " +
           hex64(fnv1a(f.check + "|" + f.path + "|" + line_text));
}

std::set<std::string>
load_baseline(const std::string& path)
{
    std::set<std::string> keys;
    std::ifstream in(path);
    if (!in)
        fatal("cannot open baseline file '" + path + "'");
    std::string line;
    while (std::getline(in, line)) {
        const auto hash_pos = line.find('#');
        if (hash_pos != std::string::npos)
            line = line.substr(0, hash_pos);
        std::istringstream ls(line);
        std::string check, file, hash;
        if (ls >> check >> file >> hash)
            keys.insert(check + " " + file + " " + hash);
    }
    return keys;
}

void
apply_fixes(Corpus& corpus, std::vector<Finding>& findings,
            RunResult& result)
{
    std::map<std::string, std::vector<const FixEdit*>> by_file;
    for (const auto& f : findings)
        if (f.fix)
            by_file[f.path].push_back(&*f.fix);

    for (auto& [path, edits] : by_file) {
        SourceFile* file = nullptr;
        for (auto& sf : corpus.files)
            if (sf.path == path)
                file = &sf;
        if (file == nullptr)
            continue;
        // Apply back-to-front so earlier offsets stay valid; skip
        // overlapping edits (first one wins).
        std::sort(edits.begin(), edits.end(),
                  [](const FixEdit* a, const FixEdit* b) {
                      return a->begin > b->begin;
                  });
        std::size_t last_begin = file->text.size() + 1;
        for (const FixEdit* e : edits) {
            if (e->end > last_begin)
                continue;
            file->text.replace(e->begin, e->end - e->begin,
                               e->replacement);
            last_begin = e->begin;
            ++result.fixes_applied;
        }
        std::ofstream out(path, std::ios::trunc);
        if (!out)
            fatal("cannot rewrite '" + path + "' with fixes");
        out << file->text;
    }

    // Fixed findings are resolved, not actionable.
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [](const Finding& f) {
                                      return f.fix.has_value();
                                  }),
                   findings.end());
}

} // namespace

std::vector<std::string>
collect_sources(const std::vector<std::string>& paths)
{
    std::vector<std::string> out;
    for (const auto& p : paths) {
        if (fs::is_directory(p)) {
            for (const auto& e : fs::recursive_directory_iterator(p))
                if (e.is_regular_file() && is_source(e.path()))
                    out.push_back(e.path().generic_string());
        } else if (fs::is_regular_file(p)) {
            out.push_back(p);
        } else {
            fatal("no such file or directory: '" + p + "'");
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

int
pool_size(int jobs, std::size_t tasks)
{
    const int want =
        jobs > 0 ? jobs : util::ThreadPool::default_concurrency();
    return static_cast<int>(std::min(static_cast<std::size_t>(want),
                                     std::max<std::size_t>(tasks, 1)));
}

Corpus
load_corpus(const std::vector<std::string>& paths, int jobs,
            double* lex_seconds)
{
    const util::Stopwatch watch;
    Corpus corpus;
    const auto read_and_lex = [](const std::string& path) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            fatal("cannot read '" + path + "'");
        std::ostringstream ss;
        ss << in.rdbuf();
        return lex_source(path, ss.str());
    };
    const int workers = pool_size(jobs, paths.size());
    if (workers == 1) {
        for (const auto& path : paths)
            corpus.files.push_back(read_and_lex(path));
    } else {
        // Same idiom as bench::run_sweep: workers fill pre-assigned
        // slots, so the corpus lands in path order at any job count.
        corpus.files.resize(paths.size());
        util::ThreadPool pool(workers);
        for (std::size_t i = 0; i < paths.size(); ++i)
            pool.submit([&, i] { corpus.files[i] = read_and_lex(paths[i]); });
        pool.wait_idle();
    }
    corpus.build_index();
    if (lex_seconds != nullptr)
        *lex_seconds = watch.elapsed_s();
    return corpus;
}

RunResult
run_checks(Corpus& corpus, const Options& opts)
{
    const util::Stopwatch total_watch;
    RunResult result;
    result.stats.files = corpus.files.size();

    // Build the cross-TU layers once; checks share them read-only.
    const util::Stopwatch index_watch;
    const SymbolIndex symbols = SymbolIndex::build(corpus);
    const CallGraph callgraph = CallGraph::build(corpus, symbols);
    result.stats.index_s = index_watch.elapsed_s();
    result.stats.functions = corpus.functions.size();
    result.stats.structs = corpus.structs.size();
    result.stats.callgraph_edges = callgraph.num_edges();
    result.stats.unresolved_calls = callgraph.num_unresolved();
    const LintContext ctx{corpus, symbols, callgraph};

    std::vector<const Check*> selected;
    for (const auto& check : check_registry()) {
        if (!opts.checks.empty() &&
            std::find(opts.checks.begin(), opts.checks.end(),
                      check->name()) == opts.checks.end())
            continue;
        selected.push_back(check.get());
    }

    // Run checks (in parallel with --jobs: each writes a private
    // vector), then concatenate in registration order — the exact
    // append order of a sequential run, so output never depends on
    // worker count.
    std::vector<std::vector<Finding>> per_check(selected.size());
    std::vector<double> per_check_s(selected.size(), 0.0);
    const auto run_one = [&](std::size_t i) {
        const util::Stopwatch watch;
        selected[i]->run(ctx, per_check[i]);
        per_check_s[i] = watch.elapsed_s();
    };
    const int workers = pool_size(opts.jobs, selected.size());
    if (workers > 1) {
        util::ThreadPool pool(workers);
        for (std::size_t i = 0; i < selected.size(); ++i)
            pool.submit([&, i] { run_one(i); });
        pool.wait_idle();
    } else {
        for (std::size_t i = 0; i < selected.size(); ++i)
            run_one(i);
    }

    std::vector<Finding> raw;
    for (std::size_t i = 0; i < selected.size(); ++i) {
        result.stats.checks.push_back({selected[i]->name(),
                                       per_check_s[i],
                                       per_check[i].size()});
        raw.insert(raw.end(),
                   std::make_move_iterator(per_check[i].begin()),
                   std::make_move_iterator(per_check[i].end()));
    }

    // Malformed allow-comments are findings themselves: a suppression
    // without a reason hides a violation with no audit trail. Malformed
    // guarded-field comments likewise: an annotation that fails to
    // parse silently unguards the field.
    for (const auto& file : corpus.files) {
        for (const int line : file.malformed_suppressions) {
            Finding f;
            f.check = "bad-suppression";
            f.path = file.path;
            f.line = line;
            f.col = 1;
            f.message =
                "malformed shiftlint-allow comment: expected "
                "`// shiftlint-allow(<check>): <reason>`";
            raw.push_back(std::move(f));
        }
        for (const int line : file.malformed_guards) {
            Finding f;
            f.check = "bad-annotation";
            f.path = file.path;
            f.line = line;
            f.col = 1;
            f.message =
                "malformed shiftlint-guarded comment: expected "
                "`// shiftlint-guarded(<mutex-member>)`";
            raw.push_back(std::move(f));
        }
    }

    const std::set<std::string> baseline =
        opts.baseline_path.empty() ? std::set<std::string>{}
                                   : load_baseline(opts.baseline_path);

    for (auto& f : raw) {
        const Suppression* matched = nullptr;
        for (const auto& file : corpus.files) {
            if (file.path != f.path)
                continue;
            for (const auto& s : file.suppressions) {
                if ((s.line == f.line || s.line == f.line - 1) &&
                    (s.check == f.check || s.check == "*")) {
                    matched = &s;
                    break;
                }
            }
        }
        if (matched != nullptr) {
            matched->used = true;
            result.suppressed.push_back(std::move(f));
        } else if (!baseline.empty() &&
                   baseline.count(baseline_key(corpus, f))) {
            result.baselined.push_back(std::move(f));
        } else {
            result.findings.push_back(std::move(f));
        }
    }

    for (const auto& file : corpus.files)
        for (const auto& s : file.suppressions)
            if (!s.used)
                result.stale_suppressions.push_back(
                    file.path + ":" + std::to_string(s.line) +
                    ": unused shiftlint-allow(" + s.check + ")");

    std::sort(result.findings.begin(), result.findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.path, a.line, a.col, a.check) <
                         std::tie(b.path, b.line, b.col, b.check);
              });

    if (opts.apply_fixes)
        apply_fixes(corpus, result.findings, result);

    result.stats.total_s = total_watch.elapsed_s();
    return result;
}

void
write_human(std::ostream& os, const RunResult& result)
{
    for (const auto& f : result.findings) {
        os << f.path << ":" << f.line << ":" << f.col << ": [" << f.check
           << "] " << f.message;
        if (f.fix)
            os << " (fixable with --fix)";
        os << "\n";
    }
    for (const auto& s : result.stale_suppressions)
        os << "warning: " << s << "\n";
    os << "shiftlint: " << result.findings.size() << " finding(s), "
       << result.suppressed.size() << " suppressed, "
       << result.baselined.size() << " baselined";
    if (result.fixes_applied > 0)
        os << ", " << result.fixes_applied << " fix(es) applied";
    os << "\n";
}

void
write_stats(std::ostream& os, const RunResult& result)
{
    const LintStats& s = result.stats;
    const auto fmt_s = [](double v) {
        std::ostringstream ss;
        ss.setf(std::ios::fixed);
        ss.precision(3);
        ss << v << "s";
        return ss.str();
    };
    os << "shiftlint stats:\n"
       << "  corpus:    " << s.files << " files, " << s.functions
       << " functions, " << s.structs << " structs\n"
       << "  callgraph: " << s.callgraph_edges << " edges, "
       << s.unresolved_calls << " unresolved call sites (fail-open)\n"
       << "  lex+parse: " << fmt_s(s.lex_s);
    if (s.lex_s > 0.0) {
        os << " (";
        os.setf(std::ios::fixed);
        os.precision(0);
        os << static_cast<double>(s.files) / s.lex_s << " files/s)";
        os.unsetf(std::ios::fixed);
    }
    os << "\n"
       << "  index:     " << fmt_s(s.index_s) << "\n"
       << "  checks:    " << fmt_s(s.total_s) << " total\n";
    for (const auto& c : s.checks)
        os << "    " << c.check << ": " << fmt_s(c.seconds) << ", "
           << c.findings << " raw finding(s)\n";
}

void
write_sarif(std::ostream& os, const RunResult& result)
{
    util::JsonWriter w(os, /*pretty=*/true);
    w.begin_object();
    w.kv("$schema",
         "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
         "Schemata/sarif-schema-2.1.0.json");
    w.kv("version", "2.1.0");
    w.key("runs").begin_array();
    w.begin_object();
    w.key("tool").begin_object();
    w.key("driver").begin_object();
    w.kv("name", "shiftlint");
    w.kv("informationUri",
         "https://github.com/shiftpar/shiftpar/tree/main/tools/shiftlint");
    w.key("rules").begin_array();
    for (const auto& check : check_registry()) {
        w.begin_object();
        w.kv("id", check->name());
        w.key("shortDescription").begin_object();
        w.kv("text", check->description());
        w.end_object();
        w.end_object();
    }
    w.end_array();  // rules
    w.end_object(); // driver
    w.end_object(); // tool
    w.key("results").begin_array();
    for (const auto& f : result.findings) {
        w.begin_object();
        w.kv("ruleId", f.check);
        w.kv("level", "error");
        w.key("message").begin_object();
        w.kv("text", f.message);
        w.end_object();
        w.key("locations").begin_array();
        w.begin_object();
        w.key("physicalLocation").begin_object();
        w.key("artifactLocation").begin_object();
        w.kv("uri", f.path);
        w.end_object();
        w.key("region").begin_object();
        w.kv("startLine", f.line);
        w.kv("startColumn", f.col);
        w.end_object();
        w.end_object();  // physicalLocation
        w.end_object();  // location
        w.end_array();   // locations
        w.end_object();  // result
    }
    w.end_array();  // results
    w.end_object(); // run
    w.end_array();  // runs
    w.end_object();
    os << "\n";
}

void
write_baseline(std::ostream& os, const Corpus& corpus,
               const RunResult& result)
{
    os << "# shiftlint baseline — accepted findings, one per line:\n"
       << "# <check> <path> <line-content-hash>  # <flagged line>\n"
       << "# Regenerate with `shiftlint --write-baseline <file>`; every\n"
       << "# entry needs a justification in the PR that adds it.\n";
    std::vector<std::string> lines;
    for (const auto& f : result.findings) {
        std::string text;
        for (const auto& file : corpus.files)
            if (file.path == f.path)
                text = file.line_text(f.line);
        if (text.size() > 60)
            text = text.substr(0, 57) + "...";
        lines.push_back(baseline_key(corpus, f) + "  # " + text);
    }
    // Also keep already-baselined findings: regeneration must not drop
    // entries that still fire.
    for (const auto& f : result.baselined) {
        std::string text;
        for (const auto& file : corpus.files)
            if (file.path == f.path)
                text = file.line_text(f.line);
        if (text.size() > 60)
            text = text.substr(0, 57) + "...";
        lines.push_back(baseline_key(corpus, f) + "  # " + text);
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    for (const auto& l : lines)
        os << l << "\n";
}

} // namespace shiftpar::lint
