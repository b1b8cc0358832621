#include "engine/router.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics_registry.h"
#include "sim/cluster.h"
#include "util/logging.h"

namespace shiftpar::engine {

Router::Router(std::vector<std::unique_ptr<Engine>> engines,
               RoutingPolicy policy, MigrationOptions migration)
    : engines_(std::move(engines)), policy_(policy), migration_(migration)
{
    SP_ASSERT(!engines_.empty());
}

bool
Router::accepts_work(std::size_t i) const
{
    return !engines_[i]->failed() && !engines_[i]->draining();
}

template <class Pred>
std::size_t
Router::least_loaded(Pred pred) const
{
    const std::size_t n = engines_.size();
    std::size_t best = n;
    std::int64_t best_load = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!pred(i))
            continue;
        const std::int64_t load = engines_[i]->outstanding_tokens();
        if (best == n || load < best_load) {
            best = i;
            best_load = load;
        }
    }
    return best;
}

std::size_t
Router::select_replica()
{
    const std::size_t n = engines_.size();
    // Pass 0 skips breaker-excluded replicas; when that leaves nothing
    // admissible, pass 1 re-admits them — degraded service beats losing
    // the request. Replicas that do not accept work stay out in both
    // passes. With the overload features off this reduces exactly to a
    // single scan over the replicas that accept work.
    for (int pass = 0; pass < 2; ++pass) {
        const auto usable = [&](std::size_t i) {
            return accepts_work(i) && (pass == 1 || !breaker_excludes(i));
        };
        if (policy_ == RoutingPolicy::kRoundRobin) {
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t pick = (next_rr_ + k) % n;
                if (usable(pick)) {
                    next_rr_ = (pick + 1) % n;
                    return pick;
                }
            }
            continue;
        }
        const std::size_t best = least_loaded(usable);
        if (best < n)
            return best;
    }
    return n;
}

void
Router::publish(obs::EngineId engine, RequestId id, obs::RequestPhase phase,
                double t, std::int64_t tokens) const
{
    if (trace_)
        trace_->publish_request({engine, id, phase, t, tokens});
}

void
Router::rebalance(double t)
{
    // Failed replicas are invisible to the rebalancer (their queues were
    // dropped), and only a replica that accepts work may receive: a
    // draining one can donate nothing (its queue was handed back) and
    // must not be sent anything.
    const std::size_t n = engines_.size();
    std::size_t busiest = n;
    std::int64_t max_load = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (engines_[i]->failed())
            continue;
        const std::int64_t load = engines_[i]->outstanding_tokens();
        if (busiest == n || load > max_load) {
            max_load = load;
            busiest = i;
        }
    }
    const std::size_t idlest =
        least_loaded([this](std::size_t i) { return accepts_work(i); });
    if (idlest == n || busiest == idlest)
        return;
    const std::int64_t gap =
        max_load - engines_[idlest]->outstanding_tokens();
    if (gap < migration_.min_token_imbalance)
        return;
    // The size cap keeps the move imbalance-shrinking: a straggler bigger
    // than the gap would just flip the roles and ping-pong.
    const auto stolen = engines_[busiest]->steal_waiting(gap);
    if (!stolen)
        return;
    const auto& [spec, id] = *stolen;
    // The move happens at the cluster's current instant: the receiver may
    // not act on the request before `t`, but must not burn the donor's
    // step overshoot as idle time either.
    engines_[idlest]->advance_clock_to(t);
    engines_[idlest]->submit(spec, id, /*migrated_in=*/true);
    ++migrations_;
    if (trace_) {
        trace_->publish_request({engines_[idlest]->trace_id(), id,
                                 obs::RequestPhase::kMigrated, t,
                                 spec.prompt_tokens});
    }
}

void
Router::admit(const RequestSpec& spec, RequestId id, double t)
{
    if (should_shed()) {
        ++fault_stats_.shed;
        publish(engines_[0]->trace_id(), id, obs::RequestPhase::kShed, t,
                spec.prompt_tokens);
        flights_[static_cast<std::size_t>(id)].outcome = FlightOutcome::kShed;
        count_outcome("shed");
        return;
    }
    if (overload_.breaker.enabled)
        update_breakers(t);
    const std::size_t pick = select_replica();
    if (pick == engines_.size()) {
        // Every replica is down: treat the arrival like a dropped request
        // — the client backs off and retries against the outage.
        schedule_retry(spec, id, t);
        return;
    }
    engines_[pick]->submit(spec, id);
    note_submit(pick, id);
    publish(engines_[pick]->trace_id(), id, obs::RequestPhase::kRouted,
            spec.arrival, spec.prompt_tokens);
    if (overload_.hedge_delay > 0.0 && engines_.size() > 1) {
        const double when = t + overload_.hedge_delay;
        active_cluster_->post(when, [this, spec, id, when] {
            maybe_hedge(spec, id, when);
        });
    }
}

bool
Router::should_shed() const
{
    if (resilience_.shed_watermark <= 0.0)
        return false;
    int total = 0, alive = 0;
    for (const auto& e : engines_) {
        total += e->num_gpus();
        if (!e->failed())
            alive += e->num_gpus();
    }
    if (alive == 0)
        return false;  // full outage: the retry path owns this arrival
    if (static_cast<double>(alive) >=
        resilience_.shed_watermark * static_cast<double>(total))
        return false;
    if (resilience_.shed_ttft_slo <= 0.0 ||
        resilience_.replica_tokens_per_s <= 0.0)
        return true;  // degraded and no SLO estimate: shed everything
    // SLO-aware guard: admit while the best backlog among replicas that
    // accept work would still be served within the TTFT budget.
    const std::size_t best =
        least_loaded([this](std::size_t i) { return accepts_work(i); });
    if (best == engines_.size())
        return false;  // nothing accepts work: the retry path owns it
    const double est_wait =
        static_cast<double>(engines_[best]->outstanding_tokens()) /
        resilience_.replica_tokens_per_s;
    return est_wait > resilience_.shed_ttft_slo;
}

void
Router::schedule_retry(const RequestSpec& spec, RequestId id, double t)
{
    SP_ASSERT(active_cluster_ != nullptr,
              "retries only run inside run_workload");
    const RequestId logical = logical_request_id(id);
    Flight& f = flights_[static_cast<std::size_t>(logical)];
    const bool clone = is_hedge_clone(id);
    if (clone)
        f.clone_live = false;
    else
        f.primary_live = false;
    clear_breaker_probe(id);
    if (f.outcome != FlightOutcome::kInFlight)
        return;  // settled while this copy was being dropped
    const bool other_lives = clone ? f.primary_live : f.clone_live;
    if (f.hedged && other_lives) {
        // One hedge copy dropped but its sibling lives on: the sibling
        // carries the flight, no retry needed.
        ++overload_stats_.hedge_losses;
        count_outcome("hedge_lost");
        publish(engines_[0]->trace_id(), id, obs::RequestPhase::kHedgeLost,
                t);
        return;
    }
    // Every copy is gone: the retry targets the logical request.
    id = logical;
    const int attempt = ++f.attempts;
    if (attempt > resilience_.max_retries) {
        ++fault_stats_.lost;
        publish(engines_[0]->trace_id(), id, obs::RequestPhase::kLost, t);
        f.outcome = FlightOutcome::kLost;
        count_outcome("lost");
        return;
    }
    ++fault_stats_.retries;
    const double delay =
        std::min(resilience_.backoff_base *
                     std::pow(2.0, static_cast<double>(attempt - 1)),
                 resilience_.backoff_cap);
    const double when = t + delay;
    publish(engines_[0]->trace_id(), id, obs::RequestPhase::kRetried, t,
            attempt);
    active_cluster_->post(when, [this, spec, id, when] {
        if (flights_[static_cast<std::size_t>(id)].outcome !=
            FlightOutcome::kInFlight)
            return;  // cancelled/expired while waiting out the backoff
        for (auto& e : engines_)
            e->advance_clock_to(when);
        if (overload_.breaker.enabled)
            update_breakers(when);
        const std::size_t pick = select_replica();
        if (pick == engines_.size()) {
            schedule_retry(spec, id, when);  // outage persists: back off
            return;
        }
        // The original arrival rides along in `spec`, so the retried
        // request's TTFT includes the outage it sat through.
        engines_[pick]->submit(spec, id);
        note_submit(pick, id);
        publish(engines_[pick]->trace_id(), id, obs::RequestPhase::kRouted,
                when, spec.prompt_tokens);
    });
}

void
Router::on_engine_failure(std::size_t idx, double t)
{
    Engine& victim = *engines_[idx];
    SP_ASSERT(!victim.failed());
    // Straggle/degrade restores aimed at the dead engine are obsolete —
    // fail() resets its multipliers and recovery brings it back healthy.
    for (const sim::EventId ev : pending_restores_[idx])
        active_cluster_->cancel_event(ev);
    pending_restores_[idx].clear();
    // The breaker's history died with the replica: recovery starts it
    // closed with fresh statistics (a cold rejoin is not a straggler).
    if (!breakers_.empty())
        breakers_[idx] = {};
    ++fault_stats_.failures;
    const auto dropped = victim.fail(t);
    fault_stats_.dropped += static_cast<std::int64_t>(dropped.size());
    for (const auto& [spec, id] : dropped)
        schedule_retry(spec, id, t);
}

void
Router::on_engine_recovery(std::size_t idx, double t)
{
    ++fault_stats_.recoveries;
    engines_[idx]->recover(t);
}

void
Router::arm_faults(sim::Cluster* cluster)
{
    std::vector<int> gpus;
    gpus.reserve(engines_.size());
    for (const auto& e : engines_)
        gpus.push_back(e->num_gpus());

    for (const fault::FaultEvent& ev : faults_.materialize(gpus)) {
        switch (ev.kind) {
          case fault::FaultKind::kFail:
            cluster->post(ev.at, [this, ev] {
                // Overlapping schedules (an explicit fail inside an MTBF
                // outage): the first failure wins and keeps its recovery;
                // a fail against an already-dead engine is dropped whole,
                // pairing each applied failure with exactly one recovery.
                if (engines_[ev.engine]->failed())
                    return;
                on_engine_failure(static_cast<std::size_t>(ev.engine),
                                  ev.at);
                if (std::isfinite(ev.recover_at)) {
                    active_cluster_->post(ev.recover_at, [this, ev] {
                        on_engine_recovery(
                            static_cast<std::size_t>(ev.engine),
                            ev.recover_at);
                    });
                }
            });
            break;
          case fault::FaultKind::kStraggle:
            cluster->post(ev.at, [this, ev] {
                if (engines_[ev.engine]->failed())
                    return;
                ++fault_stats_.straggles;
                engines_[ev.engine]->set_slowdown(ev.factor, ev.at);
                pending_restores_[ev.engine].push_back(
                    active_cluster_->post(ev.recover_at, [this, ev] {
                        engines_[ev.engine]->set_slowdown(1.0,
                                                          ev.recover_at);
                    }));
            });
            break;
          case fault::FaultKind::kDrain:
            cluster->post(ev.at, [this, ev] {
                const auto idx = static_cast<std::size_t>(ev.engine);
                if (!accepts_work(idx))
                    return;
                ++overload_stats_.drains;
                const auto handed = engines_[idx]->start_drain(ev.at);
                overload_stats_.drained +=
                    static_cast<std::int64_t>(handed.size());
                for (const auto& [spec, id] : handed) {
                    // Each handed-back request re-routes like a migration:
                    // it keeps its id and arrival, so its TTFT accrues
                    // the detour.
                    const std::size_t pick = select_replica();
                    if (pick == engines_.size()) {
                        schedule_retry(spec, id, ev.at);
                        continue;
                    }
                    engines_[pick]->advance_clock_to(ev.at);
                    engines_[pick]->submit(spec, id, /*migrated_in=*/true);
                    note_submit(pick, id);
                    publish(engines_[pick]->trace_id(), id,
                            obs::RequestPhase::kDrained, ev.at);
                    publish(engines_[pick]->trace_id(), id,
                            obs::RequestPhase::kRouted, ev.at,
                            spec.prompt_tokens);
                }
                if (std::isfinite(ev.recover_at)) {
                    const auto resume_at = ev.recover_at;
                    active_cluster_->post(resume_at, [this, idx,
                                                      resume_at] {
                        // A fail-stop may have ended the drain first (a
                        // failed engine is never draining).
                        if (engines_[idx]->failed() || accepts_work(idx))
                            return;
                        ++overload_stats_.drain_resumes;
                        engines_[idx]->resume_admission(resume_at);
                    });
                }
            });
            break;
          case fault::FaultKind::kDegrade:
            cluster->post(ev.at, [this, ev] {
                ++fault_stats_.degrades;
                const std::size_t n = engines_.size();
                for (std::size_t i = 0; i < n; ++i) {
                    if (ev.engine >= 0 &&
                        i != static_cast<std::size_t>(ev.engine))
                        continue;
                    if (engines_[i]->failed())
                        continue;
                    engines_[i]->set_comm_multiplier(ev.factor, ev.at);
                    pending_restores_[i].push_back(
                        active_cluster_->post(ev.recover_at, [this, i,
                                                              ev] {
                            engines_[i]->set_comm_multiplier(
                                1.0, ev.recover_at);
                        }));
                }
            });
            break;
        }
    }
}

Metrics
Router::run_workload(const std::vector<RequestSpec>& workload)
{
    std::vector<RequestSpec> sorted = workload;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const RequestSpec& a, const RequestSpec& b) {
                         return a.arrival < b.arrival;
                     });

    // Every replica is a component on one event timeline; each arrival is
    // an event that syncs replica clocks to the arrival instant and routes
    // the request. The cluster interleaves arrivals and engine steps in
    // global time order, so with migration disabled the per-engine step
    // sequences — and therefore all records and metrics — equal those of
    // a lockstep loop that advances every replica to each arrival,
    // submits, and drains (pinned by test_sim_equivalence's goldens).
    sim::Cluster cluster;
    cluster.set_profile(profile_);
    active_cluster_ = &cluster;
    fault_stats_ = {};
    pending_restores_.assign(engines_.size(), {});

    // Every logical request gets a flight that some terminal outcome
    // settles; the finish/expire hooks feed it.
    overload_stats_ = {};
    flights_.assign(sorted.size(), {});
    breakers_.clear();
    if (overload_.breaker.enabled)
        breakers_.assign(engines_.size(), {});
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        engines_[i]->set_on_finish(
            [this, i](const Request& r) { return settle_finished(i, r); });
        engines_[i]->set_on_expire(
            [this](RequestId id, double) { settle_expired(id); });
    }

    for (auto& e : engines_)
        cluster.add(e.get());
    if (!faults_.empty())
        arm_faults(&cluster);
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const RequestSpec& spec = sorted[i];
        cluster.post(spec.arrival, [this, &spec, i] {
            for (auto& e : engines_)
                e->advance_clock_to(spec.arrival);
            admit(spec, static_cast<RequestId>(i), spec.arrival);
        });
    }
    // Cancels are posted after arrivals so an abort at exactly the
    // arrival instant fires after the request was admitted (equal-time
    // events run in posting order).
    for (const CancelEvent& c : cancels_) {
        SP_ASSERT(c.index >= 0 &&
                      c.index < static_cast<std::int64_t>(sorted.size()),
                  "cancel stream addresses a request outside the workload");
        cluster.post(c.at, [this, c] {
            do_cancel(static_cast<RequestId>(c.index), c.at);
        });
    }
    if (migration_.enabled)
        cluster.set_progress_hook([this](double t) { rebalance(t); });
    cluster.run();
    active_cluster_ = nullptr;
    for (auto& e : engines_) {
        if (e->has_work()) {
            fatal("cluster replay deadlocked: a replica still holds "
                  "unfinished requests its KV cache cannot admit");
        }
    }
    for (auto& e : engines_) {
        e->set_on_finish(nullptr);
        e->set_on_expire(nullptr);
    }
    assert_conservation(sorted.size());
    publish_fault_counters();
    return merged_metrics();
}

void
Router::publish_fault_counters() const
{
    using Series = std::pair<const char*, std::int64_t>;
    const fault::FaultStats& f = fault_stats_;
    const Series requests[] = {{"shed", f.shed}, {"lost", f.lost},
                               {"retried", f.retries},
                               {"dropped", f.dropped}};
    const Series transitions[] = {
        {"failure", f.failures},   {"recovery", f.recoveries},
        {"straggle", f.straggles}, {"degrade", f.degrades},
        {"drain", overload_stats_.drains}};
    obs::MetricsRegistry& reg = obs::MetricsRegistry::current();
    for (const auto& [outcome, n] : requests) {
        if (n != 0)
            reg.counter_add("shiftpar_fault_requests_total", n,
                            {{"outcome", outcome}});
    }
    for (const auto& [kind, n] : transitions) {
        if (n != 0)
            reg.counter_add("shiftpar_fault_transitions_total", n,
                            {{"kind", kind}});
    }
}

void
Router::note_submit(std::size_t pick, RequestId id)
{
    Flight& f =
        flights_[static_cast<std::size_t>(logical_request_id(id))];
    if (is_hedge_clone(id))
        f.clone_live = true;
    else
        f.primary_live = true;
    if (!breakers_.empty()) {
        Breaker& b = breakers_[pick];
        if (b.state == Breaker::State::kHalfOpen && b.probe < 0) {
            b.probe = id;
            ++overload_stats_.breaker_probes;
        }
    }
}

void
Router::count_outcome(const char* outcome, std::int64_t n) const
{
    obs::MetricsRegistry::current().counter_add(
        "shiftpar_request_outcome_total", n, {{"outcome", outcome}});
}

bool
Router::settle_finished(std::size_t idx, const Request& r)
{
    const RequestId logical = logical_request_id(r.id);
    const bool clone = is_hedge_clone(r.id);
    Flight& f = flights_[static_cast<std::size_t>(logical)];
    if (!breakers_.empty())
        record_breaker_sample(idx, r);
    if (clone)
        f.clone_live = false;
    else
        f.primary_live = false;
    clear_breaker_probe(r.id);
    if (f.outcome != FlightOutcome::kInFlight) {
        // The sibling hedge copy already completed and this finish raced
        // the loser-cancel event: resolve the loss here instead, and
        // suppress the metrics record — the logical request already
        // reported through the winner.
        if (f.outcome == FlightOutcome::kCompleted && f.hedged) {
            ++overload_stats_.hedge_losses;
            count_outcome("hedge_lost");
            publish(engines_[idx]->trace_id(), r.id,
                    obs::RequestPhase::kHedgeLost, r.finished);
        }
        return false;
    }
    f.outcome = FlightOutcome::kCompleted;
    ++overload_stats_.completed;
    count_outcome("completed");
    if (f.hedged) {
        ++overload_stats_.hedge_wins;
        count_outcome("hedge_won");
        publish(engines_[idx]->trace_id(), logical,
                obs::RequestPhase::kHedgeWon, r.finished);
        const RequestId loser =
            clone ? logical : logical + kHedgeIdOffset;
        const bool loser_live = clone ? f.primary_live : f.clone_live;
        if (loser_live) {
            // The loser is cancelled by an event, not inline: this hook
            // runs inside the winner engine's step, and yanking a
            // request out of another engine mid-interleave would race
            // its in-progress iteration.
            const double when = r.finished;
            active_cluster_->post(when, [this, logical, loser, when] {
                resolve_hedge_loser(logical, loser, when);
            });
        }
    }
    return true;
}

void
Router::settle_expired(RequestId id)
{
    const RequestId logical = logical_request_id(id);
    Flight& f = flights_[static_cast<std::size_t>(logical)];
    if (is_hedge_clone(id))
        f.clone_live = false;
    else
        f.primary_live = false;
    clear_breaker_probe(id);
    if (f.outcome != FlightOutcome::kInFlight)
        return;
    if (f.primary_live || f.clone_live)
        return;  // the other hedge copy is still in flight
    f.outcome = FlightOutcome::kExpired;
    ++overload_stats_.expired;
    count_outcome("expired");
}

void
Router::do_cancel(RequestId id, double t)
{
    Flight& f = flights_[static_cast<std::size_t>(id)];
    if (f.outcome != FlightOutcome::kInFlight)
        return;  // finished/expired/lost/shed before the abort arrived
    for (auto& e : engines_)
        e->advance_clock_to(t);
    bool closed = false;
    for (auto& e : engines_) {
        if (e->cancel(id)) {
            closed = true;
            break;
        }
    }
    if (f.clone_live) {
        for (auto& e : engines_) {
            if (e->cancel(id + kHedgeIdOffset))
                break;
        }
        f.clone_live = false;
    }
    if (!closed) {
        // Retry limbo: the request is on no engine right now (dropped by
        // a failure, waiting out its backoff). The pending retry closure
        // checks the flight outcome and stands down; close the trace
        // span from the router.
        publish(engines_[0]->trace_id(), id, obs::RequestPhase::kCancel,
                t);
    }
    f.primary_live = false;
    f.outcome = FlightOutcome::kCancelled;
    ++overload_stats_.cancelled;
    count_outcome("cancelled");
    clear_breaker_probe(id);
    clear_breaker_probe(id + kHedgeIdOffset);
}

void
Router::maybe_hedge(const RequestSpec& spec, RequestId id, double when)
{
    Flight& f = flights_[static_cast<std::size_t>(id)];
    if (f.outcome != FlightOutcome::kInFlight || f.hedged ||
        !f.primary_live)
        return;
    // Hedge only while the primary has zero sunk work: once a chunk was
    // scheduled, duplicating it would burn two replicas' compute on one
    // answer.
    std::size_t holder = engines_.size();
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        if (engines_[i]->queued_unscheduled(id)) {
            holder = i;
            break;
        }
    }
    if (holder == engines_.size())
        return;  // already scheduled (or in retry limbo): too late
    if (overload_.breaker.enabled)
        update_breakers(when);
    // Least-loaded other replica that can take the clone.
    const std::size_t target = least_loaded([&](std::size_t i) {
        return i != holder && accepts_work(i) && !breaker_excludes(i);
    });
    if (target == engines_.size())
        return;
    for (auto& e : engines_)
        e->advance_clock_to(when);
    f.hedged = true;
    ++overload_stats_.hedges;
    count_outcome("hedged");
    publish(engines_[holder]->trace_id(), id, obs::RequestPhase::kHedged,
            when);
    const RequestId clone_id = id + kHedgeIdOffset;
    // The clone keeps the original spec (arrival included), so whichever
    // copy wins reports an honest TTFT.
    engines_[target]->submit(spec, clone_id);
    note_submit(target, clone_id);
    publish(engines_[target]->trace_id(), clone_id,
            obs::RequestPhase::kRouted, when, spec.prompt_tokens);
}

void
Router::resolve_hedge_loser(RequestId logical, RequestId loser,
                            double when)
{
    Flight& f = flights_[static_cast<std::size_t>(logical)];
    const bool clone = is_hedge_clone(loser);
    if (!(clone ? f.clone_live : f.primary_live))
        return;  // resolved in the meantime (raced finish or a drop)
    for (auto& e : engines_)
        e->advance_clock_to(when);
    // Marker first so it lands inside the loser's still-open span; the
    // engine-side cancel then closes the span.
    publish(engines_[0]->trace_id(), loser, obs::RequestPhase::kHedgeLost,
            when);
    for (auto& e : engines_) {
        if (e->cancel(loser))
            break;
    }
    if (clone)
        f.clone_live = false;
    else
        f.primary_live = false;
    ++overload_stats_.hedge_losses;
    count_outcome("hedge_lost");
    clear_breaker_probe(loser);
}

double
Router::best_other_ewma(std::size_t idx) const
{
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < breakers_.size(); ++j) {
        if (j == idx || engines_[j]->failed())
            continue;
        if (breakers_[j].samples < overload_.breaker.min_samples)
            continue;
        best = std::min(best, breakers_[j].ewma);
    }
    return best;
}

void
Router::record_breaker_sample(std::size_t idx, const Request& r)
{
    Breaker& b = breakers_[idx];
    const auto tokens = static_cast<double>(
        std::max<std::int64_t>(1, r.spec.prompt_tokens +
                                      r.spec.output_tokens));
    // Per-token service latency (first schedule -> finish): queueing
    // time is excluded so a deep queue alone does not read as sickness,
    // but a straggling replica's slowdown shows up directly.
    const double sample = (r.finished - r.first_scheduled) / tokens;
    const double alpha = overload_.breaker.ewma_alpha;
    b.ewma = b.samples == 0 ? sample
                            : alpha * sample + (1.0 - alpha) * b.ewma;
    ++b.samples;
    const double t = r.finished;
    if (b.state == Breaker::State::kClosed) {
        if (b.samples < overload_.breaker.min_samples)
            return;
        const double best = best_other_ewma(idx);
        if (std::isfinite(best) &&
            b.ewma > overload_.breaker.trip_ratio * best) {
            b.state = Breaker::State::kOpen;
            b.reopen_at = t + overload_.breaker.open_duration;
            ++overload_stats_.breaker_opens;
            publish_breaker(idx, obs::FaultKind::kBreakerOpen, t,
                            b.ewma / best);
        }
    } else if (b.state == Breaker::State::kHalfOpen && r.id == b.probe) {
        b.probe = -1;
        const double best = best_other_ewma(idx);
        if (std::isfinite(best) &&
            b.ewma > overload_.breaker.trip_ratio * best) {
            b.state = Breaker::State::kOpen;
            b.reopen_at = t + overload_.breaker.open_duration;
            ++overload_stats_.breaker_opens;
            publish_breaker(idx, obs::FaultKind::kBreakerOpen, t,
                            b.ewma / best);
        } else {
            b.state = Breaker::State::kClosed;
            ++overload_stats_.breaker_closes;
            publish_breaker(idx, obs::FaultKind::kBreakerClose, t);
        }
    }
}

void
Router::update_breakers(double t)
{
    for (std::size_t i = 0; i < breakers_.size(); ++i) {
        Breaker& b = breakers_[i];
        if (b.state == Breaker::State::kOpen && t >= b.reopen_at) {
            b.state = Breaker::State::kHalfOpen;
            b.probe = -1;
            publish_breaker(i, obs::FaultKind::kBreakerHalfOpen, t);
        }
    }
}

bool
Router::breaker_excludes(std::size_t i) const
{
    if (breakers_.empty())
        return false;
    const Breaker& b = breakers_[i];
    if (b.state == Breaker::State::kOpen)
        return true;
    // Half-open admits exactly one probe at a time.
    return b.state == Breaker::State::kHalfOpen && b.probe >= 0;
}

void
Router::publish_breaker(std::size_t idx, obs::FaultKind kind, double t,
                        double magnitude) const
{
    if (!trace_)
        return;
    obs::FaultEvent ev;
    ev.engine = engines_[idx]->trace_id();
    ev.kind = kind;
    ev.t = t;
    ev.magnitude = magnitude;
    trace_->on_fault(ev);
}

void
Router::clear_breaker_probe(RequestId id)
{
    for (Breaker& b : breakers_) {
        if (b.probe == id)
            b.probe = -1;
    }
}

void
Router::assert_conservation(std::size_t submitted) const
{
    std::int64_t settled = 0;
    for (const Flight& f : flights_)
        settled += f.outcome != FlightOutcome::kInFlight ? 1 : 0;
    SP_ASSERT(settled == static_cast<std::int64_t>(submitted),
              "unsettled request flights after replay");
    const std::int64_t accounted =
        overload_stats_.completed + overload_stats_.expired +
        overload_stats_.cancelled + fault_stats_.lost + fault_stats_.shed;
    SP_ASSERT(accounted == static_cast<std::int64_t>(submitted),
              "request conservation violated: submitted != completed + "
              "lost + shed + expired + cancelled");
}

Metrics
Router::merged_metrics() const
{
    // Seed the bin width defensively: an engineless router (possible when
    // a caller moves the engines out or builds the router incrementally)
    // must not index engines_[0].
    if (engines_.empty())
        return Metrics();
    // Size the merged logs once: growing them engine by engine would
    // hold a doubled step log at each reallocation.
    std::size_t requests = 0;
    std::size_t steps = 0;
    for (const auto& e : engines_) {
        requests += e->metrics().requests().size();
        steps += e->metrics().steps().size();
    }
    Metrics merged(engines_[0]->metrics().bin_seconds());
    merged.reserve(requests, steps);
    for (const auto& e : engines_)
        merged.merge(e->metrics());
    return merged;
}

} // namespace shiftpar::engine
