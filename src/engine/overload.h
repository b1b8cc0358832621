/**
 * @file
 * Overload-robustness knobs and accounting for the request lifecycle.
 *
 * The fault layer (fault/fault_schedule.h) models *infrastructure*
 * failures: engines die, links degrade, requests retry or are shed. This
 * header models *request-level* robustness under overload — the serving
 * techniques a production front-end needs when traffic bursts past
 * capacity and back:
 *
 *  - per-request deadlines (`RequestSpec::deadline`): expired requests
 *    are evicted instead of burning tokens past their SLO;
 *  - client cancellation streams (`CancelEvent`), replayed as events on
 *    the cluster timeline;
 *  - hedged retries (`OverloadOptions::hedge_delay`): a still-queued
 *    request is duplicated onto the least-loaded other replica,
 *    first-completion-wins, the loser cancelled;
 *  - per-replica circuit breakers (`CircuitBreakerOptions`): an EWMA
 *    latency health score per engine with a closed -> open -> half-open
 *    state machine, so the router routes around sick-but-not-dead
 *    replicas (stragglers) instead of only fully failed ones.
 *
 * Everything here is off by default; with every knob at its default the
 * replay's results are those of a router without these features. Every
 * replay, with or without them, tracks each request to one terminal
 * outcome, and `Router::run_workload` asserts the conservation invariant
 *
 *   submitted = completed + lost + shed + expired + cancelled
 *
 * over its per-request flight table.
 */

#pragma once

#include <cstdint>

#include "engine/request.h"

namespace shiftpar::engine {

/**
 * Request-id offset of a hedge clone: the duplicate of request `i` is
 * submitted as `i + kHedgeIdOffset`, so both copies coexist on the
 * engines without colliding while the router maps either id back to the
 * logical request. Far above any workload's request count.
 */
constexpr RequestId kHedgeIdOffset = RequestId{1} << 40;

/** @return the logical request id behind a possibly-hedged engine id. */
constexpr RequestId
logical_request_id(RequestId id)
{
    return id >= kHedgeIdOffset ? id - kHedgeIdOffset : id;
}

/** @return true when `id` names a hedge clone. */
constexpr bool
is_hedge_clone(RequestId id)
{
    return id >= kHedgeIdOffset;
}

/** One client cancellation against a replayed workload. */
struct CancelEvent
{
    /**
     * Target request, by position in the arrival-sorted workload — the
     * same numbering `Router::run_workload` assigns request ids by.
     */
    std::int64_t index = 0;

    /** Cancellation time, seconds (>= the request's arrival). */
    double at = 0.0;
};

/**
 * Per-replica circuit breaker (closed -> open -> half-open). The router
 * keeps an EWMA of each replica's per-token service time; a replica whose
 * EWMA exceeds `trip_ratio` times the healthiest replica's trips open and
 * receives no traffic for `open_duration` seconds, then admits a single
 * probe request whose completion decides between closing and re-opening.
 */
struct CircuitBreakerOptions
{
    bool enabled = false;

    /** Weight of the newest sample in the health EWMA. */
    double ewma_alpha = 0.2;

    /** Trip when ewma > trip_ratio x (fleet-minimum ewma). */
    double trip_ratio = 2.0;

    /** Samples required before a breaker may trip. */
    int min_samples = 5;

    /** Seconds an open breaker waits before probing (half-open). */
    double open_duration = 5.0;
};

/** Overload-robustness policy, active only inside `run_workload`. */
struct OverloadOptions
{
    /**
     * Hedged retries: seconds after routing before a still-queued,
     * never-scheduled request is duplicated onto the least-loaded other
     * replica (0 disables). First completion wins; the loser is
     * cancelled through the normal cancel path.
     */
    double hedge_delay = 0.0;

    CircuitBreakerOptions breaker;

    /** @return true when any overload feature is switched on. */
    bool any() const { return hedge_delay > 0.0 || breaker.enabled; }
};

/** Counters of one overload-aware replay (reported per run). */
struct OverloadStats
{
    std::int64_t completed = 0;      ///< logical requests that finished
    std::int64_t expired = 0;        ///< evicted past their deadline
    std::int64_t cancelled = 0;      ///< client-cancelled requests
    std::int64_t hedges = 0;         ///< hedge clones submitted
    std::int64_t hedge_wins = 0;     ///< hedged requests that completed
    std::int64_t hedge_losses = 0;   ///< losing copies resolved (cancel/dup)
    std::int64_t breaker_opens = 0;  ///< closed/half-open -> open trips
    std::int64_t breaker_probes = 0; ///< half-open probe requests admitted
    std::int64_t breaker_closes = 0; ///< half-open -> closed recoveries
    std::int64_t drains = 0;         ///< graceful drains started
    std::int64_t drained = 0;        ///< waiting requests handed back
    std::int64_t drain_resumes = 0;  ///< drained engines re-admitted

    /**
     * @return true when any lifecycle event beyond plain completion was
     * counted. `completed` is left out: every replay counts it.
     */
    bool
    any() const
    {
        return (expired | cancelled | hedges | hedge_wins | hedge_losses |
                breaker_opens | breaker_probes | breaker_closes | drains |
                drained | drain_resumes) != 0;
    }
};

} // namespace shiftpar::engine
