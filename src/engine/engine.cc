#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics_registry.h"
#include "util/logging.h"

namespace shiftpar::engine {

Engine::Engine(const hw::Node& node, const model::ModelConfig& m,
               EngineConfig cfg, std::unique_ptr<ExecutionPolicy> policy)
    : model_(m), cfg_(cfg),
      cost_model_(parallel::make_cost_model(cfg.cost, node, m, cfg.perf)),
      mem_plan_(parallel::plan_memory(m, node.gpu, cfg.base,
                                      cfg.with_shift_model, cfg.weights,
                                      cfg.mem)),
      cache_(mem_plan_.kv_token_capacity,
             kvcache::KvLayout::base(m, cfg.base), cfg.block_size),
      shift_layout_(kvcache::KvLayout::shift(m, cfg.base)),
      scheduler_(cfg.sched, &cache_), policy_(std::move(policy)),
      metrics_(cfg.throughput_bin)
{
    SP_ASSERT(policy_ != nullptr);
    if (!mem_plan_.fits()) {
        fatal("model '" + m.name + "' does not fit under " +
              cfg.base.to_string() + ": " + parallel::describe(mem_plan_));
    }
    // Section 3.3.1: the SP_TP-ordered shift configuration must be KV-cache
    // invariant with the base configuration by construction.
    cache_.assert_invariant_with(shift_layout_);
    if (cfg_.trace) {
        scheduler_.set_trace(cfg_.trace, cfg_.trace_id);
        cache_.set_trace(cfg_.trace, cfg_.trace_id, &now_);
        policy_->attach_trace(cfg_.trace, cfg_.trace_id, &now_);
    }
}

void
Engine::submit(const RequestSpec& spec, RequestId id, bool migrated_in)
{
    SP_ASSERT(!failed_, "submit to a failed engine");
    SP_ASSERT(!draining_, "submit to a draining engine");
    SP_ASSERT(spec.prompt_tokens >= 1 && spec.output_tokens >= 1,
              "requests need at least one prompt and one output token");
    SP_ASSERT(spec.prefix_tokens >= 0 &&
                  spec.prefix_tokens <= spec.prompt_tokens,
              "prefix must be a leading slice of the prompt");
    if (spec.prompt_tokens + spec.output_tokens > model_.max_context) {
        fatal("request exceeds " + model_.name + "'s context window: " +
              std::to_string(spec.prompt_tokens + spec.output_tokens) +
              " > " + std::to_string(model_.max_context) + " tokens");
    }
    auto req = std::make_unique<Request>();
    req->id = id;
    req->spec = spec;
    req->prefill_target = spec.prompt_tokens;
    req->migrated_in = migrated_in;
    enqueue(std::move(req));
}

void
Engine::submit_prefilled(const RequestSpec& spec, RequestId id,
                         std::int64_t already_decoded)
{
    SP_ASSERT(spec.prompt_tokens >= 1 && spec.output_tokens >= 1);
    SP_ASSERT(already_decoded >= 1 && already_decoded < spec.output_tokens,
              "a prefilled request needs at least one token left to decode");
    auto req = std::make_unique<Request>();
    req->id = id;
    req->spec = spec;
    req->prefill_target = spec.prompt_tokens;
    req->prefilled = spec.prompt_tokens;  // KV materialized on admission
    req->decoded = already_decoded;
    req->first_token = spec.arrival;  // produced by the prefill worker
    enqueue(std::move(req));
}

void
Engine::enqueue(std::unique_ptr<Request> req)
{
    scheduler_.enqueue(req.get());
    if (cfg_.trace) {
        cfg_.trace->publish_request({cfg_.trace_id, req->id,
                                     obs::RequestPhase::kSubmit,
                                     req->spec.arrival,
                                     req->spec.prompt_tokens});
    }
    requests_.push_back(std::move(req));
    notify_ready_changed();
}

std::vector<std::pair<RequestSpec, RequestId>>
Engine::hand_back(const std::vector<Request*>& removed)
{
    std::vector<std::pair<RequestSpec, RequestId>> out;
    out.reserve(removed.size());
    for (const Request* r : removed)
        out.emplace_back(r->spec, r->id);
    return out;
}

void
Engine::publish_fault(obs::FaultKind kind, double t, double magnitude,
                      std::int64_t dropped) const
{
    if (!cfg_.trace)
        return;
    obs::FaultEvent ev;
    ev.engine = cfg_.trace_id;
    ev.kind = kind;
    ev.t = t;
    ev.magnitude = magnitude;
    ev.dropped_requests = dropped;
    cfg_.trace->on_fault(ev);
}

bool
Engine::cancel(RequestId id)
{
    for (auto& req : requests_) {
        if (req->id != id)
            continue;
        // Keep scanning past dead copies: a request dropped here (lost,
        // migrated out) and later re-routed back leaves its old object
        // in requests_ ahead of the live one.
        if (!scheduler_.cancel(req.get()))
            continue;
        ++cancelled_;
        if (cfg_.trace) {
            cfg_.trace->publish_request(
                {cfg_.trace_id, id, obs::RequestPhase::kCancel, now_, 0});
        }
        notify_ready_changed();  // may have been the engine's last work
        return true;
    }
    return false;
}

bool
Engine::queued_unscheduled(RequestId id) const
{
    for (const auto& req : requests_) {
        // Scan every copy: a dead one (lost, migrated out) may precede a
        // live re-routed one with the same id.
        if (req->id == id && req->state == RequestState::kWaiting &&
            req->first_scheduled < 0.0)
            return true;
    }
    return false;
}

std::vector<std::pair<RequestSpec, RequestId>>
Engine::start_drain(double t)
{
    SP_ASSERT(!failed_, "start_drain on a failed engine");
    SP_ASSERT(!draining_, "start_drain on an already-draining engine");
    draining_ = true;
    now_ = std::max(now_, t);
    auto out = hand_back(scheduler_.drain_waiting());
    publish_fault(obs::FaultKind::kDrainStart, now_, 0.0,
                  static_cast<std::int64_t>(out.size()));
    notify_ready_changed();  // the hand-back may have emptied the queue
    return out;
}

void
Engine::resume_admission(double t)
{
    SP_ASSERT(draining_, "resume_admission on a non-draining engine");
    draining_ = false;
    now_ = std::max(now_, t);
    publish_fault(obs::FaultKind::kDrainEnd, now_);
    notify_ready_changed();
}

std::vector<std::pair<RequestSpec, RequestId>>
Engine::fail(double t)
{
    SP_ASSERT(!failed_, "engine failed twice without recovering");
    failed_ = true;
    draining_ = false;  // fail-stop trumps a drain in progress
    now_ = std::max(now_, t);
    slowdown_ = 1.0;
    comm_multiplier_ = 1.0;

    auto out = hand_back(scheduler_.fail_all());

    // HBM dies with the rank group: idle prefix entries (live ones were
    // just unpinned by the drop) are destroyed too, so a recovered engine
    // restarts cold.
    cache_.evict_idle_prefixes(std::numeric_limits<std::int64_t>::max());
    SP_ASSERT(cache_.num_requests() == 0 &&
                  cache_.prefix_entry_count() == 0 &&
                  cache_.utilization() == 0.0,
              "failed engine still holds KV state");

    publish_fault(obs::FaultKind::kFail, now_, 0.0,
                  static_cast<std::int64_t>(out.size()));
    notify_ready_changed();  // failed: no events until recover()
    return out;
}

void
Engine::recover(double t)
{
    SP_ASSERT(failed_, "recover() on a healthy engine");
    failed_ = false;
    now_ = std::max(now_, t);
    publish_fault(obs::FaultKind::kRecover, now_);
    notify_ready_changed();
}

void
Engine::set_slowdown(double factor, double t)
{
    SP_ASSERT(factor >= 1.0);
    slowdown_ = factor;
    publish_fault(factor > 1.0 ? obs::FaultKind::kStraggleStart
                               : obs::FaultKind::kStraggleEnd,
                  t, factor);
}

void
Engine::set_comm_multiplier(double factor, double t)
{
    SP_ASSERT(factor >= 1.0);
    comm_multiplier_ = factor;
    publish_fault(factor > 1.0 ? obs::FaultKind::kLinkDegrade
                               : obs::FaultKind::kLinkRestore,
                  t, factor);
}

void
Engine::record_cost_metrics(
    const parallel::StepTiming& timing,
    const std::vector<parallel::KernelCost>& breakdown) const
{
    obs::MetricsRegistry& reg = obs::MetricsRegistry::current();
    reg.counter_add("shiftpar_costmodel_evals_total", 1,
                    {{"model", cost_model_->name()}});
    const double total = timing.total();
    if (total <= 0.0)
        return;
    for (const parallel::KernelCost& k : breakdown) {
        reg.observe("shiftpar_costmodel_kernel_share", k.seconds / total,
                    {{"kernel", k.kernel}});
    }
}

bool
Engine::expire_now()
{
    const std::vector<Request*> expired = scheduler_.expire_due(now_);
    if (expired.empty())
        return false;
    expired_ += static_cast<std::int64_t>(expired.size());
    for (const Request* r : expired) {
        if (on_expire_)
            on_expire_(r->id, now_);
    }
    // No notify_ready_changed() here: expire_now runs inside advance_to,
    // i.e. mid-grant, where re-posting the ready time stales the cluster
    // entry the loop is currently granting. Every expiry path returns
    // true, and the cluster loop republishes via refresh_ready after any
    // true grant — so the ready time is re-announced either way.
    return true;
}

bool
Engine::step()
{
    // Deadline expiry precedes scheduling so a past-deadline request
    // never takes another token of compute; eviction alone is progress.
    const bool expired = expire_now();
    BatchPlan plan = scheduler_.schedule(now_);
    if (plan.empty())
        return expired;

    const std::int64_t batched = plan.batched_tokens();
    const ExecutionPolicy::Choice choice = policy_->choose(batched);

    // Every mode switch must be KV-layout safe. The base configuration owns
    // the cache layout; the only other legal configuration is the
    // SP_TP-ordered shift config.
    if (!(choice.cfg == cfg_.base)) {
        SP_ASSERT(choice.cfg == cfg_.base.shift_config(),
                  "policy chose a configuration outside {base, shift}");
        cache_.assert_invariant_with(shift_layout_);
    }

    std::vector<parallel::KernelCost> breakdown;
    parallel::StepTiming timing = cost_model_->evaluate(
        plan.work(), choice.cfg, choice.sliced,
        cfg_.cost_metrics ? &breakdown : nullptr);
    if (cfg_.cost_metrics)
        record_cost_metrics(timing, breakdown);
    // Fault-injection multipliers. Guarded so an unfaulted run's timings
    // are the exact same doubles — results stay bit-identical with the
    // fault subsystem unused.
    if (comm_multiplier_ != 1.0)
        timing.comm *= comm_multiplier_;
    if (slowdown_ != 1.0) {
        timing.gemm *= slowdown_;
        timing.attention *= slowdown_;
        timing.comm *= slowdown_;
        timing.overhead *= slowdown_;
    }

    StepRecord rec;
    rec.start = now_;
    now_ += timing.total();
    rec.end = now_;
    rec.batched_tokens = batched;
    rec.num_seqs = static_cast<std::int64_t>(plan.chunks.size());
    rec.cfg = choice.cfg;
    rec.timing = timing;
    metrics_.on_step(rec);

    if (cfg_.trace) {
        obs::StepEvent ev;
        ev.engine = cfg_.trace_id;
        ev.start = rec.start;
        ev.end = rec.end;
        ev.batched_tokens = batched;
        ev.num_seqs = rec.num_seqs;
        ev.cfg = choice.cfg;
        ev.shifted = !(choice.cfg == cfg_.base);
        ev.sliced = choice.sliced;
        ev.timing = timing;
        cfg_.trace->on_step(ev);
    }

    std::vector<Request*> finished;
    scheduler_.on_step_complete(now_, plan, &finished);
    for (const Request* r : finished) {
        if (on_finish_ && !on_finish_(*r))
            continue;  // duplicate copy of an already-settled request
        metrics_.on_request_finished(*r);
    }

    if (cfg_.trace) {
        obs::GaugeEvent g;
        g.engine = cfg_.trace_id;
        g.t = now_;
        g.kv_utilization = cache_.utilization();
        g.kv_free_tokens = cache_.free_tokens();
        g.waiting = static_cast<std::int64_t>(scheduler_.num_waiting());
        g.running = static_cast<std::int64_t>(scheduler_.num_running());
        g.outstanding_tokens = scheduler_.outstanding_tokens();
        cfg_.trace->on_gauge(g);
    }
    return true;
}

double
Engine::next_event_time() const
{
    if (failed_ || !has_work())
        return std::numeric_limits<double>::infinity();
    if (scheduler_.num_running() > 0)
        return now_;
    // A pending deadline wakes an otherwise-idle engine so expiry fires
    // at the right instant (earliest_deadline() is +inf without one).
    const double next = std::min(scheduler_.earliest_waiting_arrival(),
                                 scheduler_.earliest_deadline());
    return next <= now_ ? now_ : next;
}

bool
Engine::advance_to(double t)
{
    if (failed_ || !has_work())
        return false;
    if (scheduler_.num_running() == 0) {
        const double next = scheduler_.earliest_waiting_arrival();
        if (next > now_) {
            const double wake =
                std::min(next, scheduler_.earliest_deadline());
            if (wake > t || !std::isfinite(wake))
                return false;
            now_ = wake;  // skip idle time to the arrival or deadline
            if (wake < next)
                expire_now();
            return true;
        }
    }
    if (step())
        return true;
    // Nothing schedulable (KV-blocked), but a queued deadline may still
    // pass inside the window: jump to it and expire, which is progress.
    const double d = scheduler_.earliest_deadline();
    if (d > now_ && d <= t && std::isfinite(d)) {
        now_ = d;
        return expire_now();
    }
    return false;
}

std::optional<std::pair<RequestSpec, RequestId>>
Engine::steal_waiting(std::int64_t max_tokens)
{
    Request* r = scheduler_.steal_waiting(now_, max_tokens);
    if (r == nullptr)
        return std::nullopt;
    // The Request object stays in requests_ (it owns the storage) but is
    // out of every queue and will never finish here, so it produces no
    // record on this engine.
    notify_ready_changed();  // may have been the engine's last work
    return std::make_pair(r->spec, r->id);
}

} // namespace shiftpar::engine
