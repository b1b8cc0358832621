#include "hw/interconnect.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace shiftpar::hw {

CollectiveModel::CollectiveModel(LinkSpec link)
    : link_(std::move(link))
{
    SP_ASSERT(link_.bw > 0.0 && link_.efficiency > 0.0);
}

double
CollectiveModel::all_reduce(double bytes, int nranks) const
{
    SP_ASSERT(bytes >= 0.0 && nranks >= 1);
    if (nranks == 1)
        return 0.0;
    return all_reduce_volume(bytes, nranks) / link_.effective_bw() +
           all_reduce_phases(link_.kind, nranks) * link_.latency;
}

double
CollectiveModel::all_gather(double bytes, int nranks) const
{
    SP_ASSERT(bytes >= 0.0 && nranks >= 1);
    if (nranks == 1)
        return 0.0;
    return all_gather_volume(bytes, nranks) / link_.effective_bw() +
           exchange_phases(link_.kind, nranks) * link_.latency;
}

double
CollectiveModel::all_to_all(double bytes, int nranks) const
{
    SP_ASSERT(bytes >= 0.0 && nranks >= 1);
    if (nranks == 1)
        return 0.0;
    return all_to_all_volume(bytes, nranks) / link_.effective_bw() +
           exchange_phases(link_.kind, nranks) * link_.latency;
}

double
CollectiveModel::all_reduce_volume(double bytes, int nranks)
{
    if (nranks <= 1)
        return 0.0;
    const double p = static_cast<double>(nranks);
    return 2.0 * (p - 1.0) / p * bytes;
}

double
CollectiveModel::all_to_all_volume(double bytes, int nranks)
{
    if (nranks <= 1)
        return 0.0;
    const double p = static_cast<double>(nranks);
    return (p - 1.0) / p * bytes;
}

double
CollectiveModel::all_gather_volume(double bytes, int nranks)
{
    if (nranks <= 1)
        return 0.0;
    const double p = static_cast<double>(nranks);
    return (p - 1.0) / p * bytes;
}

double
CollectiveModel::all_reduce_phases(FabricKind kind, int nranks)
{
    return kind == FabricKind::kRing ? 2.0 * (nranks - 1.0) : 2.0;
}

double
CollectiveModel::exchange_phases(FabricKind kind, int nranks)
{
    return kind == FabricKind::kRing ? nranks - 1.0 : 1.0;
}

LinkChannel::LinkChannel(LinkSpec link)
    : link_(std::move(link))
{
    SP_ASSERT(link_.bw > 0.0 && link_.efficiency > 0.0,
              "a link channel needs usable bandwidth");
}

double
LinkChannel::occupancy(double bytes) const
{
    SP_ASSERT(bytes >= 0.0);
    return bytes / link_.effective_bw() + link_.latency;
}

double
LinkChannel::busy_until() const
{
    // Active windows are non-decreasing in FIFO order, so the last active
    // entry ends last.
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        if (!it->cancelled)
            return it->end;
    }
    return 0.0;
}

LinkChannel::Window
LinkChannel::reserve(std::int64_t id, double t, double bytes)
{
    const double start = std::max(t, busy_until());
    const Entry e{id, t, bytes, start, start + occupancy(bytes), false};
    entries_.push_back(e);
    return {e.start, e.end};
}

std::vector<std::int64_t>
LinkChannel::cancel(std::int64_t id, double t)
{
    std::vector<std::int64_t> moved;
    std::size_t pos = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].id == id && !entries_[i].cancelled) {
            pos = i;
            break;
        }
    }
    if (pos == entries_.size() || t >= entries_[pos].end)
        return moved;  // absent or already delivered: nothing to release
    Entry& victim = entries_[pos];
    if (t <= victim.start) {
        victim.cancelled = true;  // never started: the slot frees entirely
    } else {
        victim.end = t;  // in flight: the link is held until the abort
    }
    // Pull everything queued behind the victim earlier.
    double prev_end = 0.0;
    for (std::size_t i = 0; i < pos; ++i) {
        if (!entries_[i].cancelled)
            prev_end = entries_[i].end;
    }
    if (!victim.cancelled)
        prev_end = victim.end;
    for (std::size_t i = pos + 1; i < entries_.size(); ++i) {
        Entry& e = entries_[i];
        if (e.cancelled)
            continue;
        const double start = std::max(e.req, prev_end);
        const double end = start + occupancy(e.bytes);
        if (start != e.start || end != e.end) {
            e.start = start;
            e.end = end;
            moved.push_back(e.id);
        }
        prev_end = e.end;
    }
    return moved;
}

LinkChannel::Window
LinkChannel::window(std::int64_t id) const
{
    for (const Entry& e : entries_) {
        if (e.id == id && !e.cancelled)
            return {e.start, e.end};
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan};
}

} // namespace shiftpar::hw
