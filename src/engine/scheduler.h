/**
 * @file
 * Continuous-batching scheduler with chunked prefill.
 *
 * Mirrors the vLLM v1 scheduling policy the paper's system plugs into:
 * every iteration assembles a batch of (a) one decode token per running
 * sequence and (b) prefill chunks from admitted/waiting requests, subject to
 * a batched-token budget (`max_batched_tokens`). KV blocks are acquired at
 * scheduling time; decode steps that cannot get a block trigger recompute
 * preemption of the most recently admitted sequence (vLLM's policy). The
 * per-iteration batched-token count produced here is exactly the input of
 * the Shift Parallelism decision (Algorithm 2).
 */

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "engine/metrics.h"
#include "engine/request.h"
#include "kvcache/cache_manager.h"
#include "obs/trace.h"
#include "parallel/perf_model.h"

namespace shiftpar::engine {

/** Scheduler tuning (vLLM-equivalent knobs). */
struct SchedulerOptions
{
    /** Token budget per iteration (vLLM max_num_batched_tokens). */
    std::int64_t max_batched_tokens = 8192;

    /** Maximum concurrently admitted sequences (vLLM max_num_seqs). */
    std::int64_t max_running_seqs = 1024;

    /**
     * Output tokens emitted per decode step (speculative decoding's
     * expected accepted length; 1 = standard autoregressive decoding).
     */
    std::int64_t decode_tokens_per_step = 1;

    /**
     * Automatic prefix caching (vLLM APC equivalent): serve shared prompt
     * prefixes (RequestSpec::prefix_id) from the KV cache.
     */
    bool enable_prefix_caching = true;
};

/** One request's share of an iteration. */
struct ScheduledChunk
{
    Request* request = nullptr;

    /** New tokens processed this step (>= 1). */
    std::int64_t new_tokens = 0;

    /** Cached context before this chunk. */
    std::int64_t past = 0;

    /** True when this chunk is prefill work (false: one decode token). */
    bool is_prefill = false;
};

/** The batch an iteration will execute. */
struct BatchPlan
{
    std::vector<ScheduledChunk> chunks;

    /** @return sum of new tokens — the Alg. 2 "batch size". */
    std::int64_t batched_tokens() const;

    /** @return true when nothing was schedulable. */
    bool empty() const { return chunks.empty(); }

    /** @return the perf-model view of this batch. */
    parallel::BatchWork work() const;
};

/** FCFS continuous-batching scheduler bound to one engine's KV cache. */
class Scheduler
{
  public:
    Scheduler(SchedulerOptions opts, kvcache::CacheManager* cache);

    /** Attach an observability sink (borrowed; null disables tracing). */
    void set_trace(obs::TraceSink* sink, obs::EngineId id)
    {
        trace_ = sink;
        trace_id_ = id;
    }

    /** Add a request to the waiting queue (FCFS by submission order). */
    void enqueue(Request* r);

    /**
     * Assemble the next iteration's batch, acquiring KV blocks as needed.
     *
     * @param now Current engine time (stamps first_scheduled).
     * @return the plan; empty when no request can make progress (all
     * waiting requests blocked on KV with nothing running to preempt).
     */
    BatchPlan schedule(double now);

    /**
     * Cancel a request (client abort): removes it from whichever queue it
     * occupies and releases its cache state.
     *
     * @return true when the request was live and is now cancelled.
     */
    bool cancel(Request* r);

    /**
     * Remove the youngest zero-progress waiting request (arrived by
     * `now`, never scheduled, holding no KV or prefix state) whose total
     * context is at most `max_tokens`, for cross-replica migration.
     * Stealing from the back of the queue disturbs FCFS the least: the
     * victim re-enters another replica's queue as if freshly routed
     * there. The size cap lets the router refuse moves that would flip
     * the imbalance rather than shrink it.
     *
     * @return the removed request (state set to kMigrated), or null.
     */
    Request* steal_waiting(double now, std::int64_t max_tokens);

    /**
     * Evict every live request whose completion deadline has passed
     * (deadline > 0 and deadline <= now): running requests (admission
     * order) then waiting ones (queue order) are removed from their
     * queues, their KV and prefix pins released, and their state set to
     * kExpired. No-op — and zero cost — unless a deadline-carrying
     * request was ever enqueued, so deadline-free runs stay
     * bit-identical.
     *
     * @return the evicted requests, running first then waiting.
     */
    std::vector<Request*> expire_due(double now);

    /**
     * @return the earliest completion deadline among live requests, or
     * +inf when none carries one (used by the engine to wake up and
     * expire work even when nothing is schedulable).
     */
    double earliest_deadline() const;

    /**
     * Graceful drain: remove every waiting request (queue order),
     * releasing any cache/prefix state acquired at the admission gate,
     * and mark them kMigrated so the router can re-admit them elsewhere.
     * Running requests are untouched — they finish here.
     *
     * @return the removed requests in queue order.
     */
    std::vector<Request*> drain_waiting();

    /**
     * Fail-stop: drop every live request (fault injection). Running
     * requests (admission order) then waiting requests (queue order) are
     * removed from their queues, their KV and prefix pins released, and
     * their state set to kLost. The returned order is deterministic so a
     * router can retry them reproducibly.
     *
     * @return the dropped requests, running first then waiting.
     */
    std::vector<Request*> fail_all();

    /**
     * Apply the effects of a completed step: advance prefill progress,
     * emit tokens, finish requests (releasing their KV).
     *
     * @param now Step end time.
     * @param plan The plan returned by `schedule`.
     * @param[out] finished Requests that completed this step.
     */
    void on_step_complete(double now, const BatchPlan& plan,
                          std::vector<Request*>* finished);

    /** @return true while any request is waiting or running. */
    bool has_work() const
    {
        return !waiting_.empty() || !running_.empty();
    }

    /** @return queued (not yet admitted) request count. */
    std::size_t num_waiting() const { return waiting_.size(); }

    /** @return admitted (KV-holding) request count. */
    std::size_t num_running() const { return running_.size(); }

    /** @return total unprocessed tokens across queued+running requests. */
    std::int64_t outstanding_tokens() const;

    /**
     * @return the earliest arrival time among waiting requests, or +inf
     * when none are waiting (used by the engine to skip idle time).
     */
    double earliest_waiting_arrival() const;

    /** @return total preemptions performed. */
    std::int64_t preemption_count() const { return preemptions_; }

  private:
    /**
     * Free KV by recompute-preempting the most recently admitted running
     * request other than `keep`, retracting the victim's chunk from `plan`
     * if it had already been scheduled this step.
     *
     * @return the retracted token count (0 when the victim had no chunk in
     * `plan`) so the caller can refund its step budget, or -1 when no
     * victim could be preempted.
     */
    std::int64_t preempt_one(const Request* keep, BatchPlan* plan);

    /**
     * Schedule one prefill chunk for `r` within `budget`, splitting the
     * chunk between the shared prefix entry (when `r` is its filler) and
     * the request's private blocks.
     *
     * @return tokens scheduled (0 when blocked).
     */
    std::int64_t schedule_prefill(Request* r, std::int64_t budget,
                                  BatchPlan* plan);

    /** Pin `r` to its shared prefix entry and apply the cache hit. */
    void attach_prefix_if_needed(Request* r);

    /**
     * The one way out of the queues (cancel, expire, drain, fail,
     * steal): remove every request matching `pred` — running ones first
     * (admission order) when `running`, then waiting ones (queue order)
     * — release its state, and set its state to `to_state`.
     *
     * @return the removed requests in removal order.
     */
    template <class Pred>
    std::vector<Request*> evict_if(Pred pred, bool running,
                                   RequestState to_state);

    /** Release `r`'s KV blocks and unpin its shared prefix entry. */
    void release_state(Request* r);

    /** Insert into the waiting queue by priority class. */
    void insert_waiting(Request* r, bool front_of_class);

    /** Publish a lifecycle event when a sink is attached. */
    void publish(const Request* r, obs::RequestPhase phase, double t,
                 std::int64_t tokens = 0) const;

    SchedulerOptions opts_;
    kvcache::CacheManager* cache_;
    std::deque<Request*> waiting_;
    std::vector<Request*> running_;  // admission order
    std::int64_t preemptions_ = 0;
    /** A deadline-carrying request was enqueued (gates expiry sweeps). */
    bool has_deadlines_ = false;
    obs::TraceSink* trace_ = nullptr;
    obs::EngineId trace_id_ = 0;
    double sched_now_ = 0.0;  ///< time of the in-progress schedule() call
};

} // namespace shiftpar::engine
