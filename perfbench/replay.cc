/**
 * @file
 * Offline replay benchmark for the shiftpar simulator.
 *
 * One process, one thread, one workload. The program generates the
 * workload's traces from `--seed`, resolves and builds the deployment
 * through the public `core::resolve` / `core::build` API and replays it
 * with `engine::Router::run_workload`:
 *
 *  1. Untraced replays of `kVariants` traces in turn, each on a freshly
 *     built router, for `--seconds` of wall time. They give the
 *     end-to-end metrics.
 *  2. A profile-only replay of trace 0: a `sim::ClusterProfile` attached straight to
 *     the router, so the engines' cost telemetry stays off. It gives the
 *     event-loop and engine host-time split.
 *  3. A traced replay with `Deployment::profile` and a benchmark-owned
 *     `obs::TraceSink` attached. The sink keeps the events it needs in
 *     memory; from them the program rebuilds each step's batch shape and
 *     each request's KV traffic.
 *  4. Isolated replays of single layers' public functions fed with the
 *     recorded inputs: `Metrics::on_step`, `CostModel::evaluate`,
 *     `ExecutionPolicy::choose` and `kvcache::CacheManager`.
 *
 * Every replay is checked: all requests complete, and the digest of the
 * per-request records plus the step count is the same in every replay of
 * a trace. The traces' digests combine into the run's, which must equal
 * `--expect-digest` when given. A failed check counts every request of
 * that replay (for the combined digest: of the run) as failed.
 *
 * With `--trace 0` the result line carries the end-to-end metrics, with
 * `--trace 1` the per-layer ones (steps 2-4 run only then). The last line
 * of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/deployment.h"
#include "core/report.h"
#include "core/shift_controller.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "engine/router.h"
#include "hw/presets.h"
#include "kvcache/cache_manager.h"
#include "model/presets.h"
#include "obs/metrics_registry.h"
#include "obs/report_json.h"
#include "obs/trace.h"
#include "parallel/cost_model_factory.h"
#include "sim/profiler.h"
#include "util/rng.h"
#include "workload/azure_trace.h"
#include "workload/mooncake_trace.h"

using namespace shiftpar;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Benchmark-owned spans around calls into each layer, kept in memory and
// written out as a Chrome trace when the run ends.

struct Span
{
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
};

class SpanLog
{
  public:
    /** Open a span under the innermost open one. */
    void
    begin(const std::string& name)
    {
        Span s;
        s.name = name;
        s.start_us = now_us();
        s.parent = open_.empty() ? -1 : open_.back();
        spans_.push_back(s);
        open_.push_back(static_cast<int>(spans_.size()) - 1);
    }

    /** Close the innermost span; @return its duration, seconds. */
    double
    end()
    {
        Span& s = spans_.at(static_cast<std::size_t>(open_.back()));
        open_.pop_back();
        s.end_us = now_us();
        return (s.end_us - s.start_us) * 1e-6;
    }

    /** Time `fn` inside a span; @return its duration, seconds. */
    double
    timed(const std::string& name, const std::function<void()>& fn)
    {
        begin(name);
        fn();
        return end();
    }

    void
    write(const std::string& path) const
    {
        std::ofstream os(path);
        if (!os)
            return;  // spans are diagnostics; the result line still prints
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
               << ",\"dur\":" << (s.end_us - s.start_us)
               << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
               << "}}";
        }
        os << "\n]}\n";
    }

  private:
    double
    now_us() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
            .count();
    }

    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Workloads. Each is open loop in simulated time: the generator fixes every
// arrival up front, whatever the simulated deployment does.

struct WorkloadDef
{
    const char* name;
    std::function<core::Deployment()> deployment;
    std::function<std::vector<engine::RequestSpec>(Rng&)> generate;
};

const std::vector<WorkloadDef>&
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"azure_shift",
         [] {
             core::Deployment d;
             d.model = model::llama_70b();
             d.strategy = parallel::Strategy::kShift;
             return d;
         },
         [](Rng& rng) {
             workload::AzureTraceOptions o;
             o.duration = 3600.0;
             return workload::azure_code_trace(rng, o);
         }},
        {"mooncake_fp8",
         [] {
             core::Deployment d;
             d.model = model::qwen_32b();
             d.model.kv_dtype = model::DType::kFp8;
             d.strategy = parallel::Strategy::kShift;
             return d;
         },
         [](Rng& rng) {
             // Fig. 10's sizes at 1.2x its arrival rate. At the paper's
             // rate the KV pool sits at the preemption cliff and step
             // counts swing by a fifth between seeds; past it every seed
             // runs KV-bound, with recompute preemptions.
             workload::MooncakeTraceOptions o;
             o.duration = 900.0;
             o.period = 2.5;
             o.prompt_median = 14000.0;
             o.output_median = 1000.0;
             return workload::mooncake_conversation_trace(rng, o);
         }},
        {"dp64_azure",
         [] {
             core::Deployment d;
             d.model = model::qwen_32b();
             d.node = hw::h200_node(64);
             d.strategy = parallel::Strategy::kDp;
             return d;
         },
         [](Rng& rng) {
             // Azure x32 with the on/off and burst periods compressed so a
             // 120 s trace holds dozens of them: with the 20 s / 12 s
             // periods, request and step counts swung by a third between
             // seeds.
             workload::AzureTraceOptions o;
             o.duration = 120.0;
             o.active_rate *= 32.0;
             o.big_burst_rate *= 32.0;
             o.active_mean /= 10.0;
             o.silent_mean /= 10.0;
             o.num_big_bursts = 4;
             o.big_burst_duration /= 5.0;
             return workload::azure_code_trace(rng, o);
         }},
    };
    return defs;
}

/**
 * Independent traces one run replays in turn, generated from seeds
 * `seed * kVariants + i`. Replaying several draws evens out how much one
 * draw's traffic happens to cost: between single draws, host time per
 * request or step differs by up to a tenth on `mooncake_fp8` and
 * `dp64_azure`.
 */
constexpr int kVariants = 8;

std::uint64_t
variant_seed(std::uint64_t seed, int variant)
{
    return seed * kVariants + static_cast<std::uint64_t>(variant);
}

// ---------------------------------------------------------------------------
// Set-up: generation + resolve + build, each timed.

struct Setup
{
    core::Deployment d;
    std::vector<engine::RequestSpec> reqs;
    core::ResolvedDeployment resolved;
    std::unique_ptr<engine::Router> router;
    double gen_s = 0.0;
    double resolve_s = 0.0;
    double build_s = 0.0;

    double total_s() const { return gen_s + resolve_s + build_s; }
};

Setup
set_up(const WorkloadDef& w, std::uint64_t seed, SpanLog& spans,
       obs::TraceSink* trace, sim::ClusterProfile* profile)
{
    Setup s;
    spans.begin("setup");
    s.gen_s = spans.timed("workload.generate", [&] {
        Rng rng(seed);
        s.reqs = w.generate(rng);
    });
    s.d = w.deployment();
    s.d.trace = trace;
    s.d.profile = profile;
    s.resolve_s =
        spans.timed("core.resolve", [&] { s.resolved = core::resolve(s.d); });
    s.build_s = spans.timed("core.build", [&] {
        s.router = core::build(s.d, s.resolved);
    });
    spans.end();
    return s;
}

// ---------------------------------------------------------------------------
// Output check.

std::uint64_t
fnv1a(std::uint64_t h, const void* data, std::size_t n)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

template <typename T>
std::uint64_t
mix(std::uint64_t h, T v)
{
    return fnv1a(h, &v, sizeof(v));
}

/** Digest of the per-request records (bit patterns) and the step count. */
std::uint64_t
digest(const engine::Metrics& m)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const engine::RequestRecord& r : m.requests()) {
        h = mix(h, r.id);
        h = mix(h, r.arrival);
        h = mix(h, r.prompt_tokens);
        h = mix(h, r.output_tokens);
        h = mix(h, r.ttft);
        h = mix(h, r.tpot);
        h = mix(h, r.completion);
        h = mix(h, r.wait);
        h = mix(h, r.preemptions);
    }
    return mix(h, static_cast<std::uint64_t>(m.steps().size()));
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Tallies attempted/failed simulated requests across every replay. Every
 * replay of a variant must reproduce that variant's first digest; the
 * run's digest combines the variants' in order and must equal the
 * expected one, when given.
 */
class OutputCheck
{
  public:
    explicit OutputCheck(std::string expect) : expect_(std::move(expect)) {}

    void
    check(const char* label, int variant, const engine::Metrics& m,
          std::size_t submitted)
    {
        const std::uint64_t d = digest(m);
        std::optional<std::uint64_t>& first =
            first_.at(static_cast<std::size_t>(variant));
        std::string why;
        if (m.requests().size() != submitted) {
            why = std::to_string(m.requests().size()) + " of " +
                  std::to_string(submitted) + " requests completed";
        } else if (first && d != *first) {
            why = "digest " + hex(d) + " != first replay's " + hex(*first);
        }
        if (!first)
            first = d;
        attempted_ += static_cast<std::int64_t>(submitted);
        if (!why.empty()) {
            failed_ += static_cast<std::int64_t>(submitted);
            std::fprintf(stderr, "output check failed (%s replay): %s\n",
                         label, why.c_str());
        }
    }

    /** After the last replay: a reference mismatch fails every request. */
    void
    check_reference()
    {
        if (expect_.empty() || hex(combined()) == expect_)
            return;
        std::fprintf(stderr, "output check failed: digest %s != reference %s\n",
                     hex(combined()).c_str(), expect_.c_str());
        failed_ = attempted_;
    }

    /** @return FNV-1a over the variants' digests, in variant order. */
    std::uint64_t
    combined() const
    {
        std::uint64_t h = 14695981039346656037ULL;
        for (const std::optional<std::uint64_t>& d : first_) {
            const std::uint64_t v = d.value_or(0);
            h = fnv1a(h, &v, sizeof(v));
        }
        return h;
    }

    std::int64_t attempted() const { return attempted_; }
    std::int64_t failed() const { return failed_; }

  private:
    std::string expect_;
    std::array<std::optional<std::uint64_t>, kVariants> first_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// The benchmark's trace sink: counts every event and keeps, in publication
// order, the ones the isolated replays need.

class RecordingSink final : public obs::TraceSink
{
  public:
    enum class Kind : std::uint8_t
    {
        kStep,
        kPrefillChunk,
        kFirstToken,
        kPreempt,
        kFinish,
    };

    struct Entry
    {
        Kind kind = Kind::kStep;
        bool sliced = false;
        obs::EngineId engine = 0;
        std::int64_t id = 0;      ///< request id (steps: batched tokens)
        std::int64_t tokens = 0;  ///< chunk tokens
        parallel::ParallelConfig cfg;  ///< steps only
    };

    void
    on_request(const obs::RequestEvent& ev) override
    {
        const Timed timed(this);
        Kind kind;
        switch (ev.phase) {
          case obs::RequestPhase::kPrefillChunk:
            kind = Kind::kPrefillChunk;
            break;
          case obs::RequestPhase::kFirstToken:
            kind = Kind::kFirstToken;
            break;
          case obs::RequestPhase::kPreempt:
            kind = Kind::kPreempt;
            break;
          case obs::RequestPhase::kFinish:
            kind = Kind::kFinish;
            break;
          default:
            return;
        }
        log_.push_back({kind, false, ev.engine, ev.request, ev.tokens, {}});
    }

    void
    on_step(const obs::StepEvent& ev) override
    {
        const Timed timed(this);
        ++steps_;
        shifted_steps_ += ev.shifted ? 1 : 0;
        log_.push_back({Kind::kStep, ev.sliced, ev.engine, ev.batched_tokens,
                        0, ev.cfg});
    }

    void
    on_mode_switch(const obs::ModeSwitchEvent&) override
    {
        const Timed timed(this);
        ++mode_switches_;
    }

    void
    on_gauge(const obs::GaugeEvent& g) override
    {
        const Timed timed(this);
        waiting_max_ = std::max(waiting_max_, g.waiting);
        util_peak_ = std::max(util_peak_, g.kv_utilization);
    }

    void
    on_fault(const obs::FaultEvent&) override
    {
        const Timed timed(this);
    }

    void
    on_instant(obs::EngineId, double, const std::string&) override
    {
        const Timed timed(this);
    }

    const std::vector<Entry>& log() const { return log_; }
    std::int64_t events() const { return events_; }
    std::int64_t steps() const { return steps_; }
    std::int64_t shifted_steps() const { return shifted_steps_; }
    std::int64_t mode_switches() const { return mode_switches_; }
    std::int64_t waiting_max() const { return waiting_max_; }
    double util_peak() const { return util_peak_; }
    double sink_s() const { return sink_s_; }

  private:
    /** Counts one event and adds its handling time to `sink_s_`. */
    struct Timed
    {
        explicit Timed(RecordingSink* s) : sink(s) { ++sink->events_; }
        ~Timed() { sink->sink_s_ += seconds_since(t0); }
        Timed(const Timed&) = delete;
        Timed& operator=(const Timed&) = delete;

        RecordingSink* sink;
        Clock::time_point t0 = Clock::now();
    };

    std::vector<Entry> log_;
    std::int64_t events_ = 0;
    std::int64_t steps_ = 0;
    std::int64_t shifted_steps_ = 0;
    std::int64_t mode_switches_ = 0;
    std::int64_t waiting_max_ = 0;
    double util_peak_ = 0.0;
    double sink_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Rebuilding layer inputs from the recorded events.

/** One KV operation: append `tokens` for `id` on `engine`, or release. */
struct KvOp
{
    std::int32_t engine = 0;
    std::int32_t tokens = 0;  ///< 0 = release
    std::int64_t id = 0;
};

/** A recorded step with its rebuilt batch shape. */
struct PricedStep
{
    parallel::BatchWork work;
    parallel::ParallelConfig cfg;
    bool sliced = false;
};

struct RecordedInputs
{
    std::vector<KvOp> kv_ops;
    std::int64_t appends = 0;
    std::vector<PricedStep> sampled_steps;  ///< every `stride`-th step
    std::int64_t shape_matches = 0;         ///< rebuilt size == recorded
};

/**
 * Walk the sink's log in publication order. Prefill chunks append their
 * tokens; from its first token to its finish (or preemption) a request
 * appends one token per step of its engine; finishes and preemptions
 * release. Each step's batch is the decoding requests (one token at their
 * cached context) plus the prefill chunks published since the engine's
 * previous step.
 *
 * A preempted request re-prefills without an event marking the end of
 * its prefill, so it rejoins the decoders when the step's recorded batch
 * size says more requests decoded than are known to: decode tokens =
 * batched tokens - prefill chunk tokens. Candidates are re-prefilling
 * requests that published no chunk in the step and whose chunks cover at
 * least the recomputed context minus its cacheable prefix, taken in the
 * order they were preempted.
 */
RecordedInputs
rebuild_inputs(const RecordingSink& sink,
               const std::vector<engine::RequestSpec>& reqs,
               std::size_t max_sampled_steps)
{
    struct ReqState
    {
        std::int64_t cached = 0;
        std::int64_t decoded = 0;
        std::int64_t resume_left = 0;  ///< re-prefill tokens still due
    };
    struct EngineState
    {
        std::vector<std::int64_t> decoding;
        std::vector<std::int64_t> resuming;  ///< in preemption order
        std::vector<std::pair<std::int64_t, model::SeqChunk>> pending;
    };

    RecordedInputs out;
    std::vector<ReqState> state(reqs.size());
    std::unordered_map<obs::EngineId, EngineState> engines;
    const std::size_t stride = std::max<std::size_t>(
        1, (static_cast<std::size_t>(sink.steps()) + max_sampled_steps - 1) /
               max_sampled_steps);
    std::size_t step_index = 0;

    auto append = [&](obs::EngineId e, std::int64_t id, std::int64_t n) {
        out.kv_ops.push_back(
            {static_cast<std::int32_t>(e), static_cast<std::int32_t>(n), id});
        ++out.appends;
    };
    auto release = [&](obs::EngineId e, EngineState& es, std::int64_t id) {
        std::erase(es.decoding, id);
        std::erase(es.resuming, id);
        out.kv_ops.push_back({static_cast<std::int32_t>(e), 0, id});
    };

    for (const RecordingSink::Entry& ev : sink.log()) {
        EngineState& es = engines[ev.engine];
        if (ev.kind == RecordingSink::Kind::kStep) {
            std::int64_t decode_tokens = ev.id;
            for (const auto& p : es.pending)
                decode_tokens -= p.second.new_tokens;
            auto extra = decode_tokens -
                         static_cast<std::int64_t>(es.decoding.size());
            for (auto it = es.resuming.begin();
                 extra > 0 && it != es.resuming.end();) {
                const std::int64_t id = *it;
                const bool chunked =
                    std::any_of(es.pending.begin(), es.pending.end(),
                                [&](const auto& p) { return p.first == id; });
                if (chunked ||
                    state[static_cast<std::size_t>(id)].resume_left > 0) {
                    ++it;
                    continue;
                }
                state[static_cast<std::size_t>(id)].decoded += 1;
                es.decoding.push_back(id);
                it = es.resuming.erase(it);
                --extra;
            }

            const bool sampled = step_index++ % stride == 0;
            PricedStep ps;
            for (std::int64_t id : es.decoding) {
                ReqState& r = state[static_cast<std::size_t>(id)];
                if (sampled)
                    ps.work.chunks.push_back({1, r.cached, false});
                append(ev.engine, id, 1);
                r.cached += 1;
                r.decoded += 1;
            }
            for (const auto& p : es.pending) {
                if (sampled)
                    ps.work.chunks.push_back(p.second);
            }
            es.pending.clear();
            if (sampled) {
                if (ps.work.total_new_tokens() == ev.id)
                    ++out.shape_matches;
                ps.cfg = ev.cfg;
                ps.sliced = ev.sliced;
                if (out.sampled_steps.size() < max_sampled_steps)
                    out.sampled_steps.push_back(std::move(ps));
            }
            continue;
        }
        const auto idx = static_cast<std::size_t>(ev.id);
        if (idx >= state.size())
            continue;  // not a workload request id
        ReqState& r = state[idx];
        switch (ev.kind) {
          case RecordingSink::Kind::kPrefillChunk:
            es.pending.push_back(
                {ev.id, model::SeqChunk{ev.tokens, r.cached, true}});
            append(ev.engine, ev.id, ev.tokens);
            r.cached += ev.tokens;
            r.resume_left -= ev.tokens;
            break;
          case RecordingSink::Kind::kFirstToken:
            // Also ends a re-prefill that began before the first token.
            std::erase(es.resuming, ev.id);
            if (std::find(es.decoding.begin(), es.decoding.end(), ev.id) ==
                es.decoding.end()) {
                r.decoded = 1;
                es.decoding.push_back(ev.id);
            }
            break;
          case RecordingSink::Kind::kPreempt: {
            // The victim's chunk, if it had one, was retracted from the step.
            std::erase_if(es.pending,
                          [&](const auto& p) { return p.first == ev.id; });
            release(ev.engine, es, ev.id);
            const engine::RequestSpec& spec = reqs[idx];
            r.cached = 0;
            r.resume_left = spec.prompt_tokens + r.decoded -
                            (spec.prefix_id >= 0 ? spec.prefix_tokens : 0);
            es.resuming.push_back(ev.id);
            break;
          }
          case RecordingSink::Kind::kFinish:
            release(ev.engine, es, ev.id);
            break;
          case RecordingSink::Kind::kStep:
            break;
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Isolated layer replays. Each repeats its pass until `min_s` of host time
// has accumulated (at least `min_passes` passes) and returns the median
// seconds per pass.

double
repeat_median(double min_s, int min_passes, const std::function<void()>& pass)
{
    std::vector<double> times;
    const Clock::time_point t0 = Clock::now();
    while (static_cast<int>(times.size()) < min_passes ||
           seconds_since(t0) < min_s) {
        const Clock::time_point p0 = Clock::now();
        pass();
        times.push_back(seconds_since(p0));
    }
    return median(times);
}

// ---------------------------------------------------------------------------
// Result line.

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
print_result(bool correct, std::int64_t attempted, std::int64_t failed,
             const std::vector<Metric>& metrics)
{
    std::string s = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
             number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

/** @return the process's peak resident set (VmHWM), MiB. */
double
peak_rss_mb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    return 0.0;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string expect_digest;
    std::string spans_out;
};

[[noreturn]] void
usage(const std::string& msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench_replay --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--expect-digest <hex>] [--spans-out <path>]\n",
                 msg.c_str());
    std::exit(2);
}

Args
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = v;
            } else if (flag == "--seed") {
                a.seed = std::stoull(v);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v);
            } else if (flag == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                a.trace = v == "1";
            } else if (flag == "--expect-digest") {
                a.expect_digest = v;
            } else if (flag == "--spans-out") {
                a.spans_out = v;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** Totals and samples of the untraced replays. */
struct UntracedRun
{
    std::int64_t requests = 0;  ///< completed, over all replays
    std::int64_t steps = 0;     ///< engine steps, over all replays
    double replay_s = 0.0;      ///< host seconds inside run_workload
    std::vector<double> replay_times, setup_s, gen_s, resolve_s, build_s;
    double rss_mb = 0.0;
    std::string deployment;
    engine::Metrics first;  ///< variant 0's metrics
};

/**
 * Replay the variants in turn on freshly built routers, in whole rounds,
 * until `seconds` have passed. Each router is gone before the next
 * set-up, so the first replay's peak resident set is one trace's alone.
 */
UntracedRun
run_untraced(const WorkloadDef& w, const Args& args, SpanLog& spans,
             OutputCheck& check)
{
    UntracedRun u;
    spans.begin("untraced");
    const Clock::time_point start = Clock::now();
    for (int n = 0; n < kVariants || n % kVariants != 0 ||
                    seconds_since(start) < args.seconds;
         ++n) {
        const int variant = n % kVariants;
        Setup s = set_up(w, variant_seed(args.seed, variant), spans, nullptr,
                         nullptr);
        engine::Metrics m;
        const double t = spans.timed("engine.run_workload", [&] {
            m = s.router->run_workload(s.reqs);
        });
        check.check("untraced", variant, m, s.reqs.size());
        u.requests += static_cast<std::int64_t>(m.requests().size());
        u.steps += static_cast<std::int64_t>(m.steps().size());
        u.replay_s += t;
        u.replay_times.push_back(t);
        u.setup_s.push_back(s.total_s());
        u.gen_s.push_back(s.gen_s);
        u.resolve_s.push_back(s.resolve_s);
        u.build_s.push_back(s.build_s);
        if (n == 0) {
            u.rss_mb = peak_rss_mb();
            u.deployment = s.resolved.describe();
            u.first = std::move(m);
        }
    }
    spans.end();
    return u;
}

/**
 * The traced side, on variant 0: a profile-only replay for the loop and
 * engine host time, a traced replay for the recorded layer inputs and
 * simulated statistics, and the isolated layer replays.
 */
std::vector<Metric>
layer_metrics(const WorkloadDef& w, const Args& args, const UntracedRun& u,
              SpanLog& spans, OutputCheck& check)
{
    // Profile attached to the router only: the engines' cost telemetry,
    // which Deployment::profile also switches on, stays off here.
    sim::ClusterProfile prof;
    {
        Setup p = set_up(w, variant_seed(args.seed, 0), spans, nullptr,
                         nullptr);
        p.router->set_profile(&prof);
        engine::Metrics m;
        spans.timed("profiled.run_workload",
                    [&] { m = p.router->run_workload(p.reqs); });
        check.check("profiled", 0, m, p.reqs.size());
    }

    RecordingSink sink;
    sim::ClusterProfile traced_prof;
    obs::MetricsRegistry registry;
    obs::MetricsRegistry* previous =
        obs::MetricsRegistry::set_thread_override(&registry);
    Setup traced =
        set_up(w, variant_seed(args.seed, 0), spans, &sink, &traced_prof);
    engine::Metrics traced_metrics;
    const double traced_s = spans.timed("traced.run_workload", [&] {
        traced_metrics = traced.router->run_workload(traced.reqs);
    });
    obs::MetricsRegistry::set_thread_override(previous);
    check.check("traced", 0, traced_metrics, traced.reqs.size());

    spans.begin("isolated");
    RecordedInputs in;
    spans.timed("rebuild_inputs",
                [&] { in = rebuild_inputs(sink, traced.reqs, 4096); });

    const std::vector<engine::StepRecord>& recs = u.first.steps();
    spans.begin("engine.metrics.on_step");
    const double on_step_pass = repeat_median(0.2, 3, [&] {
        engine::Metrics fresh(traced.d.throughput_bin);
        for (const engine::StepRecord& r : recs)
            fresh.on_step(r);
    });
    spans.end();

    const auto cost = parallel::make_cost_model(
        traced.d.cost, traced.d.node, traced.d.model, traced.resolved.perf);
    double priced_sum = 0.0;
    spans.begin("model.evaluate");
    const double evaluate_pass = repeat_median(0.2, 3, [&] {
        for (const PricedStep& ps : in.sampled_steps)
            priced_sum += cost->evaluate(ps.work, ps.cfg, ps.sliced).total();
    });
    spans.end();

    std::unique_ptr<engine::ExecutionPolicy> policy;
    if (traced.d.strategy == parallel::Strategy::kShift &&
        traced.resolved.base.sp > 1) {
        policy = std::make_unique<core::ShiftController>(
            traced.resolved.base, traced.resolved.shift_threshold,
            traced.d.weights);
    } else {
        policy = std::make_unique<engine::FixedPolicy>(traced.resolved.base);
    }
    std::int64_t chosen = 0;
    spans.begin("core.choose");
    const double choose_pass = repeat_median(0.05, 3, [&] {
        for (const engine::StepRecord& r : recs)
            chosen += policy->choose(r.batched_tokens).cfg.sp;
    });
    spans.end();

    // One cache per engine, sized and laid out like the engine's.
    std::int64_t kv_fails = 0;
    spans.begin("kvcache.replay");
    const double kv_pass = repeat_median(0.2, 3, [&] {
        std::vector<std::unique_ptr<kvcache::CacheManager>> caches;
        for (std::size_t i = 0; i < traced.router->size(); ++i) {
            const kvcache::CacheManager& c = traced.router->engine(i).cache();
            caches.push_back(std::make_unique<kvcache::CacheManager>(
                c.token_capacity(), c.layout(), traced.d.block_size));
        }
        kv_fails = 0;
        for (const KvOp& op : in.kv_ops) {
            kvcache::CacheManager& c =
                *caches.at(static_cast<std::size_t>(op.engine));
            if (op.tokens == 0)
                c.release(op.id);
            else if (!c.try_append(op.id, op.tokens))
                ++kv_fails;
        }
    });
    spans.end();

    spans.begin("obs.report");
    const double report_s = repeat_median(0.0, 3, [&] {
        std::ostringstream os;
        os << core::format_report(traced.resolved, traced_metrics);
        obs::ReportJson report(w.name);
        report.add_run(w.name, traced_metrics);
        report.write(os);
    });
    spans.end();
    spans.end();

    std::int64_t evals = 0;
    for (const auto& c : registry.snapshot().counters) {
        if (c.name == "shiftpar_costmodel_evals_total")
            evals += c.value;
    }
    std::int64_t preemptions = 0, prefix_hits = 0;
    for (std::size_t i = 0; i < traced.router->size(); ++i) {
        preemptions += traced.router->engine(i).preemption_count();
        prefix_hits += traced.router->engine(i).cache().prefix_hit_tokens();
    }
    std::int64_t prompt_tokens = 0, output_tokens = 0;
    for (const engine::RequestSpec& r : traced.reqs) {
        prompt_tokens += r.prompt_tokens;
        output_tokens += r.output_tokens;
    }
    double batch_tokens = 0.0, batch_seqs = 0.0;
    for (const engine::StepRecord& r : recs) {
        batch_tokens += static_cast<double>(r.batched_tokens);
        batch_seqs += static_cast<double>(r.num_seqs);
    }

    const auto eng_it = prof.components.find("engine");
    const sim::ClusterProfile::KindStats eng =
        eng_it == prof.components.end() ? sim::ClusterProfile::KindStats{}
                                        : eng_it->second;
    double component_s = 0.0;
    for (const auto& [kind, ks] : prof.components)
        component_s += ks.wall_s;

    const auto per = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double steps = static_cast<double>(recs.size());
    const double on_step_ns = per(on_step_pass, steps) * 1e9;
    const double evaluate_ns =
        per(evaluate_pass, static_cast<double>(in.sampled_steps.size())) *
        1e9;
    const double choose_ns = per(choose_pass, steps) * 1e9;
    const double appends = static_cast<double>(in.appends);
    const double advance_s = eng.wall_s;

    // Share of engine.advance_s each isolated replay accounts for.
    const std::vector<std::pair<const char*, double>> shares = {
        {"engine.metrics", per(on_step_ns * 1e-9 * steps, advance_s)},
        {"model",
         per(evaluate_ns * 1e-9 * static_cast<double>(evals), advance_s)},
        {"core", per(choose_ns * 1e-9 * steps, advance_s)},
        {"kvcache", per(kv_pass, advance_s)},
    };
    double explained = 0.0;
    const std::pair<const char*, double>* top = &shares.front();
    for (const auto& sh : shares) {
        explained += sh.second;
        if (sh.second > top->second)
            top = &sh;
    }
    std::printf("isolated-replay shares of engine.advance_s:");
    for (const auto& sh : shares)
        std::printf(" %s %.3f", sh.first, sh.second);
    std::printf("\nlargest isolated-replay share: %s (%.3f)\n", top->first,
                top->second);
    std::printf("rebuilt batch shapes: %zu sampled steps, %.4f match the "
                "recorded batch size (checksums %.6g, %lld)\n",
                in.sampled_steps.size(),
                per(static_cast<double>(in.shape_matches),
                    static_cast<double>(in.sampled_steps.size())),
                priced_sum, static_cast<long long>(chosen));

    const auto count = [](std::int64_t v) { return static_cast<double>(v); };
    return {
        {"sim.run_s", prof.run_wall_s, "s"},
        {"sim.loop_self_s", prof.run_wall_s - component_s - prof.event_wall_s,
         "s"},
        {"sim.event_s", prof.event_wall_s, "s"},
        {"sim.event_us",
         per(prof.event_wall_s, count(prof.events_fired)) * 1e6, "us"},
        {"sim.events", count(prof.events_fired), "count"},
        {"sim.ready_pushes", count(prof.ready_pushes), "count"},
        {"sim.ready_skips", count(prof.ready_skips), "count"},
        {"sim.queue_high_water", count(prof.queue_high_water), "count"},
        {"engine.advance_s", advance_s, "s"},
        {"engine.step_us", per(advance_s, count(eng.advances)) * 1e6, "us"},
        {"engine.steps", steps, "count"},
        {"engine.stalls", count(eng.stalls), "count"},
        {"engine.preemptions", count(preemptions), "count"},
        {"engine.batch_tokens_mean", per(batch_tokens, steps), "tokens"},
        {"engine.batch_seqs_mean", per(batch_seqs, steps), "seqs"},
        {"engine.waiting_max", count(sink.waiting_max()), "count"},
        {"engine.metrics.on_step_ns", on_step_ns, "ns"},
        {"engine.unattributed_frac", 1.0 - explained, "fraction"},
        {"model.evals", count(evals), "count"},
        {"model.evals_per_step", per(count(evals), steps), "evals/step"},
        {"model.evaluate_ns", evaluate_ns, "ns"},
        {"model.evaluate_share", shares[1].second, "fraction"},
        {"core.resolve_s", median(u.resolve_s), "s"},
        {"core.build_s", median(u.build_s), "s"},
        {"core.choose_ns", choose_ns, "ns"},
        {"core.shift_step_frac",
         per(count(sink.shifted_steps()), count(sink.steps())), "fraction"},
        {"core.mode_switches", count(sink.mode_switches()), "count"},
        {"kvcache.append_ns", per(kv_pass, appends) * 1e9, "ns"},
        {"kvcache.appends", appends, "count"},
        {"kvcache.append_fail_frac", per(count(kv_fails), appends),
         "fraction"},
        {"kvcache.util_peak", sink.util_peak(), "fraction"},
        {"kvcache.prefix_hit_frac", per(count(prefix_hits), count(prompt_tokens)),
         "fraction"},
        {"obs.traced_overhead_frac", per(traced_s, median(u.replay_times)) - 1.0,
         "fraction"},
        {"obs.sink_s", sink.sink_s(), "s"},
        {"obs.events", count(sink.events()), "count"},
        {"obs.report_s", report_s, "s"},
        {"workload.gen_s", median(u.gen_s), "s"},
        {"workload.requests", count(static_cast<std::int64_t>(traced.reqs.size())),
         "count"},
        {"workload.prompt_tokens", count(prompt_tokens), "tokens"},
        {"workload.output_tokens", count(output_tokens), "tokens"},
    };
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parse_args(argc, argv);
    const WorkloadDef* w = nullptr;
    for (const WorkloadDef& def : workloads()) {
        if (args.workload == def.name)
            w = &def;
    }
    if (w == nullptr)
        usage("unknown workload " + args.workload);

    SpanLog spans;
    OutputCheck check(args.expect_digest);
    const UntracedRun u = run_untraced(*w, args, spans, check);
    std::printf("workload %s seed %llu: %d traces, variant 0 has %zu "
                "requests and %zu steps; %zu untraced replays (median "
                "%.4f s)\n",
                w->name, static_cast<unsigned long long>(args.seed),
                kVariants, u.first.requests().size(), u.first.steps().size(),
                u.replay_times.size(), median(u.replay_times));
    std::printf("deployment: %s\n", u.deployment.c_str());

    std::vector<Metric> out;
    if (args.trace) {
        out = layer_metrics(*w, args, u, spans, check);
    } else {
        // Throughput over the whole run, not a per-replay median: other
        // tenants of the host slow replays in episodes of seconds, and a
        // ratio of totals moves smoothly with the share of time they take
        // (see perfbench/README.md).
        out = {
            {"sim_req_per_s", static_cast<double>(u.requests) / u.replay_s,
             "req/s"},
            {"sim_steps_per_s", static_cast<double>(u.steps) / u.replay_s,
             "steps/s"},
            {"setup_s", median(u.setup_s), "s"},
            {"peak_rss_mb", u.rss_mb, "MB"},
        };
    }
    check.check_reference();
    std::printf("digest %s\n", hex(check.combined()).c_str());

    if (!args.spans_out.empty())
        spans.write(args.spans_out);
    std::fflush(stderr);
    print_result(check.failed() == 0, check.attempted(), check.failed(), out);
    return 0;
}
