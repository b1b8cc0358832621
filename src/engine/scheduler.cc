#include "engine/scheduler.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace shiftpar::engine {

namespace {

/** `r`'s share of Scheduler::outstanding_tokens(). */
std::int64_t
load_of(const Request& r)
{
    return r.prefill_remaining() + (r.spec.output_tokens - r.decoded);
}

} // namespace

std::int64_t
BatchPlan::batched_tokens() const
{
    std::int64_t total = 0;
    for (const auto& c : chunks)
        total += c.new_tokens;
    return total;
}

parallel::BatchWork
BatchPlan::work() const
{
    parallel::BatchWork w;
    w.chunks.reserve(chunks.size());
    for (const auto& c : chunks)
        w.chunks.push_back({c.new_tokens, c.past, c.is_prefill});
    return w;
}

Scheduler::Scheduler(SchedulerOptions opts, kvcache::CacheManager* cache)
    : opts_(opts), cache_(cache)
{
    SP_ASSERT(cache != nullptr);
    SP_ASSERT(opts_.max_batched_tokens >= 1 && opts_.max_running_seqs >= 1);
}

void
Scheduler::publish(const Request* r, obs::RequestPhase phase, double t,
                   std::int64_t tokens) const
{
    if (trace_)
        trace_->publish_request({trace_id_, r->id, phase, t, tokens});
}

void
Scheduler::enqueue(Request* r)
{
    SP_ASSERT(r != nullptr && r->state == RequestState::kWaiting);
    if (r->spec.deadline > 0.0)
        has_deadlines_ = true;
    outstanding_ += load_of(*r);
    insert_waiting(r, /*front_of_class=*/false);
}

void
Scheduler::insert_waiting(Request* r, bool front_of_class)
{
    // Priority classes, FCFS within a class. New arrivals go behind their
    // class; preempted requests return to the front of theirs (they have
    // the oldest in-flight work). The queue therefore stays in
    // descending priority order, which the prefill pass relies on.
    if (r->prefill_done())
        ++waiting_prefilled_;
    const auto pos = std::find_if(
        waiting_.begin(), waiting_.end(), [&](const Request* w) {
            return front_of_class
                       ? w->spec.priority <= r->spec.priority
                       : w->spec.priority < r->spec.priority;
        });
    waiting_.insert(pos, r);
}

std::int64_t
Scheduler::preempt_one(const Request* keep, BatchPlan* plan)
{
    // vLLM preempts the most recently admitted sequence first so the oldest
    // requests keep their progress (FCFS fairness under memory pressure).
    // Prefer victims that are not already part of this step's plan; when
    // none exists, evict a planned one, retract its chunk, and report the
    // retracted tokens so the caller can refund its budget.
    auto in_plan = [&](const Request* r) {
        return std::any_of(plan->chunks.begin(), plan->chunks.end(),
                           [&](const ScheduledChunk& c) {
                               return c.request == r;
                           });
    };
    for (int pass = 0; pass < 2; ++pass) {
        for (auto it = running_.rbegin(); it != running_.rend(); ++it) {
            Request* victim = *it;
            if (victim == keep)
                continue;
            if (pass == 0 && in_plan(victim))
                continue;
            std::int64_t retracted = 0;
            if (in_plan(victim)) {
                std::erase_if(plan->chunks, [&](const ScheduledChunk& c) {
                    if (c.request != victim)
                        return false;
                    retracted += c.new_tokens;
                    return true;
                });
            }
            release_state(victim);
            outstanding_ -= load_of(*victim);
            victim->reset_for_recompute();
            outstanding_ += load_of(*victim);
            running_.erase(std::next(it).base());
            insert_waiting(victim, /*front_of_class=*/true);
            ++preemptions_;
            publish(victim, obs::RequestPhase::kPreempt, sched_now_);
            return retracted;
        }
    }
    return -1;
}

BatchPlan
Scheduler::schedule(double now)
{
    BatchPlan plan;
    std::int64_t budget = opts_.max_batched_tokens;
    sched_now_ = now;  // stamps preemption/lifecycle events this call

    // ---- Migrated-request admission ---------------------------------------
    // Requests arriving already prefilled (disaggregated decode workers)
    // materialize their transferred KV without compute; doing this before
    // the decode pass lets them decode in this very step. The scan only
    // runs while such a request is waiting.
    bool migrated_blocked = false;
    for (auto it = waiting_.begin();
         waiting_prefilled_ > 0 && it != waiting_.end() &&
         static_cast<std::int64_t>(running_.size()) <
             opts_.max_running_seqs;) {
        Request* r = *it;
        if (r->spec.arrival > now || !r->prefill_done()) {
            ++it;
            continue;
        }
        if (migrated_blocked || !cache_->try_append(r->id, r->prefilled)) {
            // Keep intra-class FCFS (same rule as the prefill pass): later
            // migrated requests must not jump a cache-blocked one, but the
            // scan continues so non-migrated requests keep their slots.
            migrated_blocked = true;
            ++it;
            continue;
        }
        it = waiting_.erase(it);
        --waiting_prefilled_;
        r->state = RequestState::kDecode;
        if (r->first_scheduled < 0.0) {
            r->first_scheduled = now;
            publish(r, obs::RequestPhase::kFirstSchedule, now);
        } else {
            publish(r, obs::RequestPhase::kResume, now);
        }
        running_.push_back(r);
    }

    // ---- Decode pass: one token per running sequence ---------------------
    // Iterate over a snapshot index range because preemption mutates
    // running_ behind the cursor.
    for (std::size_t i = 0; i < running_.size() && budget > 0;) {
        Request* r = running_[i];
        if (r->state != RequestState::kDecode) {
            ++i;
            continue;
        }
        const std::int64_t past =
            r->prefix_filled + cache_->cached_tokens(r->id);
        // Cap the chunk at the remaining budget: with multi-token decode
        // steps (speculative decoding) an uncapped chunk could push
        // batched_tokens() past max_batched_tokens, distorting the
        // ShiftController's Alg. 2 decision near the threshold.
        const std::int64_t tokens =
            std::min({opts_.decode_tokens_per_step,
                      r->spec.output_tokens - r->decoded, budget});
        SP_ASSERT(tokens >= 1);
        while (!cache_->try_append(r->id, tokens)) {
            const std::int64_t retracted = preempt_one(r, &plan);
            if (retracted < 0) {
                fatal("KV cache cannot hold a single decoding request; "
                      "increase memory or reduce context");
            }
            // A planned victim's chunk was retracted: refund its tokens so
            // the freed budget stays spendable this step.
            budget += retracted;
            // Preemption may have removed requests before the cursor.
            const auto pos =
                std::find(running_.begin(), running_.end(), r);
            i = static_cast<std::size_t>(pos - running_.begin());
        }
        plan.chunks.push_back({r, tokens, past, false});
        budget -= tokens;
        ++i;
    }

    // ---- Prefill pass ------------------------------------------------------
    // Continuing prefills and arrived waiting requests compete for the
    // chunked-prefill budget in one priority-ordered pass: a freshly
    // arrived latency-class request takes budget ahead of an in-flight
    // batch-class prefill. Within a class, continuing work precedes new
    // admissions and ties keep FCFS order. waiting_ is already in
    // priority order, so the pass merges the few continuing prefills
    // (stably sorted) with a lazy cursor over the queue.
    continuing_.clear();
    for (Request* r : running_) {
        if (r->state == RequestState::kPrefill && !r->prefill_done())
            continuing_.push_back(r);
    }
    std::stable_sort(continuing_.begin(), continuing_.end(),
                     [](const Request* a, const Request* b) {
                         return a->spec.priority > b->spec.priority;
                     });

    auto next_continuing = continuing_.begin();
    auto next_waiting = waiting_.begin();
    while (budget > 0) {
        // Admission stops for good at a full running set or at the first
        // blocked request (end() marks the cursor stopped); continuing
        // prefills still take budget after that.
        if (static_cast<std::int64_t>(running_.size()) >=
            opts_.max_running_seqs)
            next_waiting = waiting_.end();
        while (next_waiting != waiting_.end() &&
               ((*next_waiting)->spec.arrival > now ||
                (*next_waiting)->prefill_done()))
            ++next_waiting;
        const bool have_continuing = next_continuing != continuing_.end();
        if (next_waiting == waiting_.end() ||
            (have_continuing && (*next_continuing)->spec.priority >=
                                    (*next_waiting)->spec.priority)) {
            if (!have_continuing)
                break;
            budget -= schedule_prefill(*next_continuing++, budget, &plan);
            continue;
        }
        Request* r = *next_waiting;
        attach_prefix_if_needed(r);
        const std::int64_t scheduled = schedule_prefill(r, budget, &plan);
        if (scheduled == 0) {
            // Keep intra-class FCFS: later (same or lower class) waiting
            // requests must not jump a blocked one.
            next_waiting = waiting_.end();
            continue;
        }
        next_waiting = waiting_.erase(next_waiting);
        r->state = RequestState::kPrefill;
        if (r->first_scheduled < 0.0) {
            r->first_scheduled = now;
            publish(r, obs::RequestPhase::kFirstSchedule, now);
        } else {
            publish(r, obs::RequestPhase::kResume, now);
        }
        running_.push_back(r);
        budget -= scheduled;
    }

    // Livelock escape: if the cache is packed with half-prefilled requests
    // so that nothing could be scheduled, preempt the newest and retry so
    // the oldest prefill can finish (recompute preemption, vLLM-style).
    if (plan.empty() && running_.size() > 1 &&
        preempt_one(nullptr, &plan) >= 0)
        return schedule(now);

    return plan;
}

template <class Pred>
std::vector<Request*>
Scheduler::evict_if(Pred pred, bool running, RequestState to_state)
{
    std::vector<Request*> evicted;
    const auto take = [&](Request* r) {
        if (!pred(r))
            return false;
        evicted.push_back(r);
        outstanding_ -= load_of(*r);
        return true;
    };
    if (running)
        std::erase_if(running_, take);
    // Waiting requests can hold state too: a schedule() pass attaches a
    // prefix (and may fill it) before admission succeeds, so a request
    // blocked at the admission gate keeps its attachment in the queue.
    std::erase_if(waiting_, [&](Request* r) {
        if (!take(r))
            return false;
        if (r->prefill_done())
            --waiting_prefilled_;
        return true;
    });
    for (Request* r : evicted) {
        release_state(r);
        r->state = to_state;
    }
    return evicted;
}

void
Scheduler::release_state(Request* r)
{
    cache_->release(r->id);
    if (!r->prefix_attached)
        return;
    cache_->detach_prefix(r->spec.prefix_id);
    r->prefix_attached = false;
    r->filling_prefix = false;
}

bool
Scheduler::cancel(Request* r)
{
    // Dead copies sit in no queue, so nothing matches them: finished and
    // cancelled are terminal, migrated/lost/expired ones were already
    // pulled out (and the same id may live on elsewhere — a retry, the
    // other hedge copy).
    return !evict_if([r](const Request* x) { return x == r; },
                     /*running=*/true, RequestState::kCancelled)
                .empty();
}

std::vector<Request*>
Scheduler::expire_due(double now)
{
    if (!has_deadlines_)
        return {};
    auto expired = evict_if(
        [now](const Request* r) {
            return r->spec.deadline > 0.0 && r->spec.deadline <= now;
        },
        /*running=*/true, RequestState::kExpired);
    for (Request* r : expired)
        publish(r, obs::RequestPhase::kExpired, now);
    return expired;
}

double
Scheduler::earliest_deadline() const
{
    double earliest = std::numeric_limits<double>::infinity();
    if (!has_deadlines_)
        return earliest;
    for (const Request* r : running_)
        if (r->spec.deadline > 0.0)
            earliest = std::min(earliest, r->spec.deadline);
    for (const Request* r : waiting_)
        if (r->spec.deadline > 0.0)
            earliest = std::min(earliest, r->spec.deadline);
    return earliest;
}

std::vector<Request*>
Scheduler::drain_waiting()
{
    return evict_if([](const Request*) { return true; }, /*running=*/false,
                    RequestState::kMigrated);
}

std::vector<Request*>
Scheduler::fail_all()
{
    return evict_if([](const Request*) { return true; }, /*running=*/true,
                    RequestState::kLost);
}

Request*
Scheduler::steal_waiting(double now, std::int64_t max_tokens)
{
    // Only zero-progress requests move: anything scheduled before (even
    // if later preempted) or holding prefilled/prefix state has sunk work
    // into this engine that migration would discard, and migrated-in
    // prefilled requests (disaggregated decode) own KV that lives on this
    // pool. Scanning from the back moves the youngest straggler: older
    // requests keep their admission slot on the donor, and the young one
    // restarts at zero cost elsewhere.
    const auto it = std::find_if(
        waiting_.rbegin(), waiting_.rend(), [&](const Request* r) {
            return r->spec.arrival <= now && r->first_scheduled < 0.0 &&
                   r->prefilled == 0 && !r->prefix_attached &&
                   !r->migrated_in &&
                   r->spec.prompt_tokens + r->spec.output_tokens <=
                       max_tokens;
        });
    if (it == waiting_.rend())
        return nullptr;
    Request* victim = *it;
    evict_if([victim](const Request* r) { return r == victim; },
             /*running=*/false, RequestState::kMigrated);
    return victim;
}

void
Scheduler::attach_prefix_if_needed(Request* r)
{
    if (!opts_.enable_prefix_caching || r->spec.prefix_id < 0 ||
        r->prefix_attached)
        return;
    // A fully-cached prompt still needs its final token computed for the
    // first logits, so the reusable prefix is capped one short.
    const std::int64_t target =
        std::min(r->spec.prefix_tokens, r->prefill_target - 1);
    if (target <= 0)
        return;
    // Hit statistics count a request's first attach only: a preempted and
    // re-admitted request re-attaches, but counting it again would inflate
    // the reported prefix hit rate.
    const auto attach = cache_->attach_prefix(
        r->spec.prefix_id, target, /*count_hit=*/!r->prefix_hit_counted);
    r->prefix_hit_counted = true;
    r->prefix_attached = true;
    r->prefix_hit = attach.hit_tokens;
    r->prefix_filled = attach.hit_tokens;
    r->filling_prefix = attach.is_filler;
    outstanding_ -= attach.hit_tokens - r->prefilled;
    r->prefilled = attach.hit_tokens;
}

std::int64_t
Scheduler::schedule_prefill(Request* r, std::int64_t budget, BatchPlan* plan)
{
    std::int64_t chunk = std::min(r->prefill_remaining(), budget);
    chunk = std::min(chunk, cache_->free_tokens());
    if (chunk <= 0)
        return 0;
    const std::int64_t past =
        r->prefix_filled + cache_->cached_tokens(r->id);

    // Split the chunk between the shared prefix entry (filler only) and
    // this request's private blocks.
    std::int64_t to_prefix = 0;
    if (r->filling_prefix) {
        const std::int64_t target =
            std::min(r->spec.prefix_tokens, r->prefill_target - 1);
        to_prefix = std::clamp<std::int64_t>(target - r->prefix_filled, 0,
                                             chunk);
    }
    if (to_prefix > 0 &&
        !cache_->try_append_prefix(r->spec.prefix_id, to_prefix)) {
        return 0;
    }
    const std::int64_t to_private = chunk - to_prefix;
    if (to_private > 0 && !cache_->try_append(r->id, to_private)) {
        if (to_prefix == 0)
            return 0;
        chunk = to_prefix;  // schedule just the shared part this step
    }
    r->prefix_filled += to_prefix;
    plan->chunks.push_back({r, chunk, past, true});
    publish(r, obs::RequestPhase::kPrefillChunk, sched_now_, chunk);
    return chunk;
}

void
Scheduler::on_step_complete(double now, const BatchPlan& plan,
                            std::vector<Request*>* finished)
{
    SP_ASSERT(finished != nullptr);
    for (const auto& c : plan.chunks) {
        Request* r = c.request;
        if (c.is_prefill) {
            r->prefilled += c.new_tokens;
            outstanding_ -= c.new_tokens;
            SP_ASSERT(r->prefilled <= r->prefill_target,
                      "prefill overshoot");
            if (!r->prefill_done())
                continue;
            // The step that completes prefill also samples the next output
            // token (vLLM semantics): the first token for fresh requests,
            // the resumption token after a recompute preemption.
            r->state = RequestState::kDecode;
            r->decoded += 1;
            outstanding_ -= 1;
            if (r->first_token < 0.0) {
                r->first_token = now;
                publish(r, obs::RequestPhase::kFirstToken, now);
            }
        } else {
            r->decoded += c.new_tokens;
            outstanding_ -= c.new_tokens;
        }
        if (r->done()) {
            r->state = RequestState::kFinished;
            r->finished = now;
            outstanding_ -= load_of(*r);  // 0: prefilled and decoded
            release_state(r);
            running_.erase(std::find(running_.begin(), running_.end(), r));
            finished->push_back(r);
            publish(r, obs::RequestPhase::kFinish, now,
                    r->spec.output_tokens);
        }
    }
#ifndef NDEBUG
    verify_load();
#endif
}

double
Scheduler::earliest_waiting_arrival() const
{
    double earliest = std::numeric_limits<double>::infinity();
    for (const Request* r : waiting_)
        earliest = std::min(earliest, r->spec.arrival);
    return earliest;
}

#ifndef NDEBUG
void
Scheduler::verify_load() const
{
    // Debug builds keep the old queue scan as an oracle: a progress
    // change or queue exit that skipped its running-total update shows
    // up here instead of as a silently different routing decision.
    std::int64_t load = 0;
    std::size_t prefilled = 0;
    for (const Request* r : waiting_) {
        load += load_of(*r);
        prefilled += r->prefill_done() ? 1 : 0;
    }
    for (const Request* r : running_)
        load += load_of(*r);
    SP_DEBUG_ASSERT(load == outstanding_, "running load ", outstanding_,
                    " but the queues hold ", load,
                    " tokens — an update was skipped");
    SP_DEBUG_ASSERT(prefilled == waiting_prefilled_,
                    "prefilled-waiting count ", waiting_prefilled_,
                    " but the queue holds ", prefilled);
}
#endif

} // namespace shiftpar::engine
