/**
 * @file
 * Self-profiling for the discrete-event cluster core.
 *
 * This is the instrument that splits a replay's host time between the
 * event loop and the components it drives. A `ClusterProfile` is a borrowed
 * accumulator a caller attaches to a `Cluster` before `run()`: the loop
 * then attributes host wall time to each component kind's `advance_to`,
 * counts fired events and event-callback time, and folds in the event
 * queue's heap-op counters and depth high-water at the end of the run.
 *
 * Profiling reads the wall clock but never writes simulation state, so a
 * profiled run is bit-identical to an unprofiled one (pinned by
 * tests/sim/test_profiler.cc). With no profile attached the loop pays one
 * null check per unit of progress.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace shiftpar::sim {

/** Host-time and event-count attribution for one `Cluster::run`. */
struct ClusterProfile
{
    /** Per-`Component::kind()` attribution. */
    struct KindStats
    {
        std::int64_t advances = 0;  ///< advance_to calls that progressed
        std::int64_t stalls = 0;    ///< advance_to calls that parked
        double wall_s = 0.0;        ///< host seconds inside advance_to
    };

    std::map<std::string, KindStats> components;

    std::int64_t events_fired = 0;  ///< queue events executed
    double event_wall_s = 0.0;      ///< host seconds inside event closures
    double run_wall_s = 0.0;        ///< host seconds inside Cluster::run

    std::int64_t queue_high_water = 0;  ///< max live pending events
    std::int64_t heap_pushes = 0;       ///< events posted
    std::int64_t heap_pops = 0;         ///< heap removals (incl. cancelled)
    std::int64_t heap_cancels = 0;      ///< lazy cancellations requested

    // Ready-heap traffic (the indexed structure picking the next actor).
    std::int64_t ready_pushes = 0;    ///< entries (re)published
    std::int64_t ready_pops = 0;      ///< live entries consumed
    std::int64_t ready_skips = 0;     ///< stale entries discarded lazily
    std::int64_t ready_rebuilds = 0;  ///< full rebuilds (run starts, compactions)

    /** Events per host second over the whole run (0 when unmeasurable). */
    double
    events_per_sec() const
    {
        return run_wall_s > 0.0
                   ? static_cast<double>(events_fired) / run_wall_s
                   : 0.0;
    }

    /** Total units of progress granted (advances + events). */
    std::int64_t
    units() const
    {
        std::int64_t n = events_fired;
        for (const auto& [kind, s] : components)
            n += s.advances;
        return n;
    }

    /** Fold another run's attribution into this one (sums; depth maxes). */
    void
    merge(const ClusterProfile& other)
    {
        for (const auto& [kind, s] : other.components) {
            KindStats& mine = components[kind];
            mine.advances += s.advances;
            mine.stalls += s.stalls;
            mine.wall_s += s.wall_s;
        }
        events_fired += other.events_fired;
        event_wall_s += other.event_wall_s;
        run_wall_s += other.run_wall_s;
        queue_high_water = queue_high_water > other.queue_high_water
                               ? queue_high_water
                               : other.queue_high_water;
        heap_pushes += other.heap_pushes;
        heap_pops += other.heap_pops;
        heap_cancels += other.heap_cancels;
        ready_pushes += other.ready_pushes;
        ready_pops += other.ready_pops;
        ready_skips += other.ready_skips;
        ready_rebuilds += other.ready_rebuilds;
    }
};

} // namespace shiftpar::sim
