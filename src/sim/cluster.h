/**
 * @file
 * The discrete-event cluster loop: one clock for every engine, link, and
 * client event in a deployment.
 *
 * Replay used to be bespoke per driver — a router lockstep loop, the
 * two-phase disaggregated replay, hand-rolled bench drivers. `Cluster`
 * replaces them with one core: components (engines, links) report when
 * they can next act, clients post timed events (arrivals, KV handoffs,
 * cancels, migrations), and the loop interleaves both in global time
 * order. That shared timeline is what makes cross-engine interactions —
 * transfer contention, decode-pool backpressure, straggler migration —
 * expressible at all.
 *
 * Determinism rules (see DESIGN.md "sim core" and §10):
 *  1. Events at equal times fire in posting order (FIFO).
 *  2. An event at time t fires before any component unit *starting* at t:
 *     an arrival at t is routed before any step that starts at t, so only
 *     steps starting strictly before an arrival can miss it.
 *  3. Among components ready at the same instant, registration order wins.
 *  4. Stalled components (declared by `advance_to` returning false) are
 *     not re-polled until any event fires or any other component
 *     progresses — re-attempts are deterministic, never time-driven.
 *
 * The next actor is picked from an indexed *ready heap* instead of a
 * linear fleet scan: each component's `next_event_time` is cached in a
 * slot and published as a `(time, registration_index)` heap entry, so a
 * pick is O(log n) at any fleet size. Entries are invalidated by a
 * per-slot stamp and skipped lazily when they surface, which keeps
 * republication O(log n) too. The cache stays honest through the
 * notify-on-ready-change contract (`Component::notify_ready_changed`);
 * Debug builds re-poll the whole fleet every iteration and abort on a
 * stale cache, so the Release fast path can't silently diverge from the
 * old scan's semantics.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/component.h"
#include "sim/event_queue.h"
#include "sim/profiler.h"

namespace shiftpar::sim {

/** Owns the cluster clock; borrows components. */
class Cluster
{
  public:
    Cluster() = default;
    ~Cluster();

    // Components hold a back-pointer to their cluster; moving or copying
    // the cluster would silently orphan them.
    Cluster(const Cluster&) = delete;
    Cluster& operator=(const Cluster&) = delete;

    /**
     * Register a component (borrowed). The component's ready-change
     * notifications are routed here until it is registered with another
     * cluster, it is destroyed, or this cluster is destroyed — the
     * component/cluster link is severed from whichever side dies first,
     * so neither destruction order is ever a dangling access.
     */
    void add(Component* c);

    /**
     * Schedule a client event (arrival, handoff completion, cancel...).
     *
     * @return a handle usable with `cancel_event`.
     */
    EventId post(double t, std::function<void()> fire);

    /**
     * Invalidate a pending event (see `EventQueue::cancel`). Used when the
     * component an event targets has failed — e.g. a straggler-restore
     * event superseded by a fail-stop.
     *
     * @return true when a pending event was actually cancelled.
     */
    bool cancel_event(EventId id);

    /**
     * Publish that `c`'s `next_event_time` may have changed (the indexed
     * ready cache is refreshed from the new value). Components call this
     * through `notify_ready_changed()`; clients mutating a component
     * directly may call it too. Unparks a stalled component — an external
     * state change is exactly what rule 4 waits for. Cheap when nothing
     * changed; `c` must be registered with this cluster.
     */
    void notify_ready(Component* c);

    /**
     * Install a hook run after every fired event and every successful
     * component advance, at the current clock. Clients use it for
     * policies that watch the whole cluster (e.g. the router's
     * cross-replica migration). The hook may post events and mutate
     * component state; it must be deterministic.
     */
    void set_progress_hook(std::function<void(double)> hook);

    /**
     * Attach a self-profiling accumulator (borrowed; null detaches).
     * While attached, `run()` attributes host wall time per component
     * kind, counts fired events, and folds in the event queue's and
     * ready heap's op counters when it returns. Profiling never touches
     * simulation state: results are bit-identical with or without it.
     */
    void set_profile(ClusterProfile* profile) { profile_ = profile; }

    /**
     * Run until no events are pending and every component is idle or
     * stalled. Callers decide whether leftover stalled work is a deadlock
     * (an engine with unfinished requests) or benign.
     *
     * @return true when every component ended idle (next_event_time ==
     * +inf); false when at least one ended stalled.
     */
    bool run();

    /** @return the cluster clock (last event/progress time), seconds. */
    double now() const { return now_; }

  private:
    /** Cached ready state for one registered component. */
    struct Slot
    {
        double cached = 0.0;       ///< time in the live heap entry
        std::uint64_t stamp = 0;   ///< bumped per publish; stales old entries
        bool entry_live = false;   ///< a current-stamp heap entry exists
        bool stalled = false;      ///< parked by advance_to() == false
    };

    /** One published ready time; valid iff its slot's stamp still matches. */
    struct ReadyEntry
    {
        double t;
        std::size_t index;  ///< registration order, breaks time ties
        std::uint64_t stamp;
    };

    struct ReadyLater
    {
        bool operator()(const ReadyEntry& a, const ReadyEntry& b) const
        {
            if (a.t != b.t)
                return a.t > b.t;
            return a.index > b.index;
        }
    };

    /** Ready-heap traffic counters (profiler fodder; always cheap). */
    struct ReadyStats
    {
        std::int64_t pushes = 0;
        std::int64_t pops = 0;
        std::int64_t skips = 0;
        std::int64_t rebuilds = 0;
    };

    friend class Component;  // ~Component() unregisters via detach()

    /** Forget `c` (destroyed or re-registered elsewhere); safe no-op
     * when `c` is not this cluster's current occupant of its slot. */
    void detach(Component* c);

    /** Publish a (bumped-stamp) entry for component `idx` at time `t`. */
    void push_ready(std::size_t idx, double t);

    /** Re-read `idx`'s time and republish (or go idle). */
    void refresh_ready(std::size_t idx);

    /** Drop stale entries until the heap top is live (or heap empty). */
    void clean_ready_top();

    /** Rebuild slots + heap from scratch (run start). */
    void rebuild_ready();

    /** Drop all stale entries and re-heapify (bounds heap growth). */
    void compact_ready();

    /** Park `idx` until an event or foreign progress (rule 4). */
    void park(std::size_t idx);

    /** Republish every parked component's ready time. */
    void wake_stalled();

#ifndef NDEBUG
    /** Full-fleet re-poll asserting the cache matches live state. */
    void verify_ready_cache() const;
#endif

    EventQueue queue_;
    std::vector<Component*> components_;
    std::vector<Slot> slots_;
    std::vector<ReadyEntry> ready_;        ///< min-heap via ReadyLater
    std::vector<std::size_t> stalled_list_;  ///< parked indices (may hold
                                             ///< unparked leftovers; the
                                             ///< slot flag is the truth)
    std::size_t stalled_count_ = 0;
    std::function<void(double)> hook_;
    ClusterProfile* profile_ = nullptr;  ///< borrowed; null = off
    EventQueue::Stats heap_folded_;      ///< heap stats already attributed
    ReadyStats ready_stats_;
    ReadyStats ready_folded_;  ///< ready stats already attributed
    double now_ = 0.0;
};

} // namespace shiftpar::sim
