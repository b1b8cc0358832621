/**
 * @file
 * Multi-engine front-end: request routing and workload replay.
 *
 * A `Router` owns one engine per replica. Single-engine deployments (TP,
 * SP, Shift) use a one-element router; DP deployments use one engine per
 * GPU. `run_workload` is the only way to drive them: it replays a trace
 * on the discrete-event cluster core (`sim::Cluster`), where arrivals are
 * posted as events and every engine is a component stepped in global time
 * order — the way the paper's client-side benchmark drives the server.
 * Every replay tracks each request to one terminal outcome and asserts
 * conservation. The shared timeline additionally enables an optional
 * cross-replica migration hook that re-routes queued stragglers from
 * overloaded replicas to idle ones between events.
 */

#pragma once

#include <memory>
#include <vector>

#include "engine/engine.h"
#include "engine/overload.h"
#include "fault/fault_schedule.h"
#include "sim/cluster.h"

namespace shiftpar::engine {

/** Replica-selection policy for DP deployments. */
enum class RoutingPolicy
{
    kRoundRobin,

    /** Route to the replica with the fewest outstanding tokens. */
    kLeastTokens,
};

/**
 * Cross-replica rebalancing policy (off by default; replay is then
 * bit-identical to a router without the hook). After every cluster event,
 * when the gap between the most- and least-loaded replica's outstanding
 * tokens exceeds `min_token_imbalance`, one zero-progress waiting request
 * is stolen from the back of the overloaded replica's queue and
 * re-submitted to the least-loaded replica — the correction DP routing
 * cannot make at arrival time because it cannot see the future.
 */
struct MigrationOptions
{
    bool enabled = false;

    /** Outstanding-token gap that triggers a migration. */
    std::int64_t min_token_imbalance = 8192;
};

/**
 * Failure-recovery policy, active only when a fault schedule is set.
 *
 * When a replica fail-stops, its dropped requests are retried on a
 * surviving replica after a capped exponential backoff (attempt n waits
 * min(backoff_base * 2^(n-1), backoff_cap) seconds, modeling client
 * retry loops); a request that exhausts `max_retries` is permanently
 * lost. While the cluster is degraded below `shed_watermark` (surviving
 * GPU fraction), new arrivals are load-shed — either all of them, or,
 * when the SLO-aware knobs are set, only those whose estimated queueing
 * wait (best surviving backlog / `replica_tokens_per_s`) exceeds
 * `shed_ttft_slo` — so the survivors keep meeting the SLO instead of
 * melting down under the full offered load.
 */
struct ResilienceOptions
{
    /** Retry attempts per request before it is declared lost. */
    int max_retries = 3;

    /** First-retry backoff, seconds. */
    double backoff_base = 0.25;

    /** Backoff ceiling, seconds. */
    double backoff_cap = 4.0;

    /**
     * Shed new arrivals while surviving GPUs / total GPUs is below this
     * fraction (0 disables shedding).
     */
    double shed_watermark = 0.0;

    /**
     * SLO-aware shedding: admit arrivals whose estimated wait stays
     * within this TTFT bound, seconds. 0 sheds every arrival while
     * degraded below the watermark.
     */
    double shed_ttft_slo = 0.0;

    /** Serving rate per replica for the wait estimate, tokens/s. */
    double replica_tokens_per_s = 0.0;
};

/** Routes requests across replicas and replays workloads. */
class Router
{
  public:
    /**
     * @param engines One or more replicas (takes ownership).
     * @param policy Replica-selection policy.
     */
    Router(std::vector<std::unique_ptr<Engine>> engines,
           RoutingPolicy policy = RoutingPolicy::kLeastTokens,
           MigrationOptions migration = {});

    /**
     * Replay a full workload on the cluster core: arrivals, routing,
     * engine steps, and (when enabled) migrations interleave as events on
     * one clock. Request ids are assigned by position in the
     * arrival-sorted workload. Replicas keep their clocks and metrics
     * across calls, so a closed-loop client may call this once per turn.
     * Asserts conservation (submitted = completed + lost + shed + expired
     * + cancelled) before returning, and fatal()s when a replica is left
     * holding work its KV cache cannot admit.
     *
     * @return merged metrics across replicas.
     */
    Metrics run_workload(const std::vector<RequestSpec>& workload);

    /** @return requests moved by the migration hook so far. */
    std::int64_t migration_count() const { return migrations_; }

    /**
     * Install a fault-injection schedule and recovery policy for the next
     * `run_workload`. The schedule is materialized against this
     * router's replicas — rank addresses resolve to whole engines, so one
     * lost rank stalls its entire SP x TP group — and every fault becomes
     * an event on the replay's cluster timeline. With an empty schedule
     * the replay is bit-identical to an unfaulted one.
     */
    void set_faults(fault::FaultSchedule schedule,
                    ResilienceOptions resilience = {})
    {
        faults_ = std::move(schedule);
        resilience_ = resilience;
    }

    /** @return fault/recovery counters from the last `run_workload`. */
    const fault::FaultStats& fault_stats() const { return fault_stats_; }

    /**
     * Configure hedged retries and per-replica circuit breakers for the
     * next `run_workload`. Hedging (hedge_delay > 0) duplicates a request
     * that is still queued-unscheduled after the delay onto the
     * least-loaded other replica; the first copy to finish wins and the
     * loser is cancelled. Breakers score each replica's per-token service
     * latency with an EWMA and stop routing to a replica whose score
     * trips `trip_ratio` x the best peer (closed -> open -> half-open
     * probe -> closed). Default-constructed options leave the replay
     * bit-identical to an unconfigured router.
     */
    void set_overload(const OverloadOptions& opts) { overload_ = opts; }

    /**
     * Install a client-cancellation stream for the next `run_workload`:
     * each entry aborts one request (addressed by its position in the
     * arrival-sorted workload, which equals its assigned id) at time
     * `at`, wherever that request is — queued, running, hedged onto two
     * replicas, or waiting out a retry backoff. An empty stream is
     * bit-identical to an unconfigured router.
     */
    void set_cancellations(std::vector<CancelEvent> cancels)
    {
        cancels_ = std::move(cancels);
    }

    /**
     * @return lifecycle-outcome counters from the last `run_workload`.
     * Conservation holds on every replay:
     * submitted = completed + lost + shed + expired + cancelled.
     */
    const OverloadStats& overload_stats() const { return overload_stats_; }

    /** @return merged metrics across replicas (after running). */
    Metrics merged_metrics() const;

    /** @return replica count. */
    std::size_t size() const { return engines_.size(); }

    /** @return replica `i`. */
    Engine& engine(std::size_t i) { return *engines_.at(i); }
    const Engine& engine(std::size_t i) const { return *engines_.at(i); }

    /**
     * Publish routing decisions to `sink` (borrowed, may be null): each
     * routed request emits a `kRouted` lifecycle event under the chosen
     * replica's trace id.
     */
    void set_trace(obs::TraceSink* sink) { trace_ = sink; }

    /**
     * Attach a self-profiling accumulator (borrowed, may be null) to the
     * cluster the next `run_workload` builds. Profiling observes host
     * time only; simulation results are bit-identical either way.
     */
    void set_profile(sim::ClusterProfile* profile) { profile_ = profile; }

  private:
    /**
     * The one replica-eligibility rule: replica `i` may receive work
     * (routing, retries, drain hand-backs, migrations, hedges) while it
     * is up and not draining.
     */
    bool accepts_work(std::size_t i) const;

    /**
     * The one load scan: among replicas `i` with `pred(i)`, the one with
     * the fewest outstanding tokens, lowest index on ties.
     *
     * @return the replica index, or `size()` when none qualifies.
     */
    template <class Pred>
    std::size_t least_loaded(Pred pred) const;

    /**
     * Pick the replica for the next request among those that accept
     * work.
     *
     * @return the replica index, or `size()` when none accepts work.
     */
    std::size_t select_replica();

    /**
     * Migration hook, run after every cluster event: move at most one
     * queued straggler from the most- to the least-loaded replica when
     * the imbalance warrants it (one per event keeps the policy
     * convergent — each event gets one corrective move).
     */
    void rebalance(double t);

    /**
     * Route one arrival at time `t`: shed when the degraded-mode guard
     * says so, otherwise submit to the selected replica, falling into the
     * retry path when every replica is down.
     */
    void admit(const RequestSpec& spec, RequestId id, double t);

    /** Post the materialized fault schedule onto the replay timeline. */
    void arm_faults(sim::Cluster* cluster);

    /** Apply a fail-stop: drop state, cancel restores, schedule retries. */
    void on_engine_failure(std::size_t idx, double t);

    /** Rejoin a failed replica at `t`. */
    void on_engine_recovery(std::size_t idx, double t);

    /**
     * Schedule a retry of a dropped request (or declare it lost once its
     * attempts are exhausted). The retry fires after a capped exponential
     * backoff and re-picks a surviving replica at fire time.
     */
    void schedule_retry(const RequestSpec& spec, RequestId id, double t);

    /** @return true when the degraded-mode guard sheds an arrival now. */
    bool should_shed() const;

    /** Publish a request lifecycle event on the router's trace. */
    void publish(obs::EngineId engine, RequestId id, obs::RequestPhase phase,
                 double t, std::int64_t tokens = 0) const;

    // ---- Request lifecycle (outcomes / cancels / hedges / breakers) ----

    /** Terminal settlement of one logical request during a replay. */
    enum class FlightOutcome
    {
        kInFlight,   ///< not settled yet
        kCompleted,  ///< some copy finished
        kExpired,    ///< evicted past its deadline (every live copy)
        kCancelled,  ///< client abort landed first
        kLost,       ///< retries exhausted
        kShed,       ///< rejected at admission
    };

    /** Per-logical-request lifecycle bookkeeping (indexed by id). */
    struct Flight
    {
        FlightOutcome outcome = FlightOutcome::kInFlight;
        bool hedged = false;        ///< a clone copy was submitted
        bool primary_live = false;  ///< primary copy sits on some replica
        bool clone_live = false;    ///< hedge clone sits on some replica
        int attempts = 0;           ///< fault retries spent so far
    };

    /** Per-replica circuit-breaker state machine. */
    struct Breaker
    {
        enum class State
        {
            kClosed,    ///< routing normally
            kOpen,      ///< excluded from routing until `reopen_at`
            kHalfOpen,  ///< admits one probe request
        };

        State state = State::kClosed;
        double ewma = 0.0;          ///< per-token service-latency score
        std::int64_t samples = 0;
        double reopen_at = 0.0;     ///< open -> half-open transition time
        RequestId probe = -1;       ///< outstanding half-open probe
    };

    /**
     * Engine on_finish hook: settle a finished copy's flight.
     * @return false when this finish is a duplicate copy of an
     * already-settled request (a losing hedge copy that completed before
     * its cancel event) and must not be recorded in metrics.
     */
    bool settle_finished(std::size_t idx, const Request& r);

    /** Engine on_expire hook: settle an evicted copy's flight. */
    void settle_expired(RequestId id);

    /** Client abort of request `id` at time `t` (cancel-stream event). */
    void do_cancel(RequestId id, double t);

    /** Hedge timer: duplicate `id` if it is still queued-unscheduled. */
    void maybe_hedge(const RequestSpec& spec, RequestId id, double when);

    /** First-completion-wins: cancel the losing hedge copy. */
    void resolve_hedge_loser(RequestId logical, RequestId loser,
                             double when);

    /** Record a copy landing on replica `pick` (liveness + probe mark). */
    void note_submit(std::size_t pick, RequestId id);

    /** Bump `shiftpar_request_outcome_total{outcome=...}`. */
    void count_outcome(const char* outcome, std::int64_t n = 1) const;

    /**
     * Add the replay's nonzero fault counters (`FaultStats` plus drains)
     * to `shiftpar_fault_requests_total` / `_transitions_total`.
     */
    void publish_fault_counters() const;

    /** Feed one completion into replica `idx`'s breaker; trip/close. */
    void record_breaker_sample(std::size_t idx, const Request& r);

    /** Lazy open -> half-open transitions due by time `t`. */
    void update_breakers(double t);

    /** @return the best qualified peer EWMA (excluding `idx`), or +inf. */
    double best_other_ewma(std::size_t idx) const;

    /** @return true when the breaker keeps new work off replica `i`. */
    bool breaker_excludes(std::size_t i) const;

    /** Publish a breaker transition on the fault track. */
    void publish_breaker(std::size_t idx, obs::FaultKind kind, double t,
                         double magnitude = 0.0) const;

    /** Forget a settled request that was a half-open probe. */
    void clear_breaker_probe(RequestId id);

    /** Assert submitted = completed + lost + shed + expired + cancelled. */
    void assert_conservation(std::size_t submitted) const;

    std::vector<std::unique_ptr<Engine>> engines_;
    RoutingPolicy policy_;
    MigrationOptions migration_;
    std::size_t next_rr_ = 0;
    std::int64_t migrations_ = 0;
    obs::TraceSink* trace_ = nullptr;
    sim::ClusterProfile* profile_ = nullptr;

    fault::FaultSchedule faults_;
    ResilienceOptions resilience_;
    fault::FaultStats fault_stats_;
    sim::Cluster* active_cluster_ = nullptr;  ///< replay-scoped borrow
    /** Pending straggle/degrade restore events, cancelled on fail-stop. */
    std::vector<std::vector<sim::EventId>> pending_restores_;

    OverloadOptions overload_;
    std::vector<CancelEvent> cancels_;
    OverloadStats overload_stats_;
    std::vector<Flight> flights_;    ///< indexed by logical request id
    std::vector<Breaker> breakers_;  ///< one per replica when enabled
};

} // namespace shiftpar::engine
