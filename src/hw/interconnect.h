/**
 * @file
 * GPU interconnect and collective-communication cost models.
 *
 * Collectives are modeled with alpha-beta costs: a latency term per
 * communication step plus a bandwidth term proportional to the bytes each
 * rank must move. Two algorithm families are supported:
 *
 *  - `kRing`: classic ring algorithms (all-reduce: 2(P-1) steps; gather /
 *    scatter: P-1 steps) — models PCIe/older NVLink fabrics.
 *  - `kSwitch`: NVSwitch-style full-bisection fabric where all ranks
 *    exchange simultaneously; all-to-all completes in one phase, all-reduce
 *    in two (reduce-scatter + all-gather).
 *
 * Per Table 2 of the paper, the distinguishing property is the *per-rank
 * communication volume*: all-reduce moves O(n·d) per rank regardless of
 * degree, while SP's all-to-all moves O(n·d / SP) — the models below encode
 * those volumes exactly.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace shiftpar::hw {

/** Collective algorithm family (fabric type). */
enum class FabricKind { kRing, kSwitch };

/** Physical link/fabric specification plus derating. */
struct LinkSpec
{
    std::string name;

    /** Per-GPU injection bandwidth into the fabric, bytes/s. */
    double bw = 0.0;

    /** Per-step software+hardware latency (NCCL launch, hop), seconds. */
    double latency = 0.0;

    /** Fraction of rated bandwidth collectives achieve (algorithmic BW). */
    double efficiency = 0.80;

    FabricKind kind = FabricKind::kSwitch;

    /** @return achievable bytes/s. */
    double effective_bw() const { return bw * efficiency; }
};

/**
 * Alpha-beta timing for NCCL-style collectives over a rank group.
 *
 * Byte-size conventions (matching NCCL's count semantics):
 *  - all_reduce: `bytes` = size of the (replicated) tensor on each rank.
 *  - all_gather: `bytes` = size of the *gathered result* on each rank.
 *  - all_to_all: `bytes` = size of each rank's local send buffer (1/P of
 *                it stays local).
 */
class CollectiveModel
{
  public:
    explicit CollectiveModel(LinkSpec link);

    /** @return the link specification in use. */
    const LinkSpec& link() const { return link_; }

    /** Time for an all-reduce of `bytes` across `nranks`, seconds. */
    double all_reduce(double bytes, int nranks) const;

    /** Time for an all-gather producing `bytes` on each rank, seconds. */
    double all_gather(double bytes, int nranks) const;

    /** Time for an all-to-all with `bytes` local buffer per rank, seconds. */
    double all_to_all(double bytes, int nranks) const;

    /**
     * Per-rank wire volume of an all-reduce (Table 2 accounting), bytes.
     * Ring all-reduce sends 2(P-1)/P of the tensor per rank.
     */
    static double all_reduce_volume(double bytes, int nranks);

    /** Per-rank wire volume of an all-to-all, bytes ((P-1)/P of buffer). */
    static double all_to_all_volume(double bytes, int nranks);

    /** Per-rank wire volume of an all-gather, bytes. */
    static double all_gather_volume(double bytes, int nranks);

    /**
     * Latency phases of an all-reduce: 2(P-1) ring steps, or two on a
     * switch (reduce-scatter + all-gather, each one simultaneous
     * exchange).
     */
    static double all_reduce_phases(FabricKind kind, int nranks);

    /**
     * Latency phases of an all-to-all or all-gather: P-1 neighbour rounds
     * on a ring, one simultaneous exchange on a switch.
     */
    static double exchange_phases(FabricKind kind, int nranks);

  private:
    LinkSpec link_;
};

/**
 * FIFO occupancy model of one point-to-point link (e.g. the fabric
 * between a prefill and a decode pool). Point-to-point transfers
 * serialize: a transfer requested while the link is busy starts when the
 * link frees. `reserve` is the only way time moves forward; `cancel`
 * releases a queued or in-flight reservation and pulls everything behind
 * it earlier. Callers that schedule completion events against `reserve`'s
 * window revalidate them against `window(id)` when `cancel` reports a
 * shifted id.
 */
class LinkChannel
{
  public:
    /** Fatal when the link has no usable bandwidth. */
    explicit LinkChannel(LinkSpec link);

    /** Occupancy window of one reservation on the link. */
    struct Window
    {
        double start = 0.0;
        double end = 0.0;
    };

    /**
     * Reserve the link for a `bytes`-sized transfer requested at time `t`.
     * The transfer starts at `max(t, busy_until())` and occupies the link
     * for `occupancy(bytes)` seconds. `id` must be unique per reservation.
     */
    Window reserve(std::int64_t id, double t, double bytes);

    /**
     * Cancel reservation `id` at time `t`. A transfer that has not started
     * is removed outright; one in flight is truncated at `t` (the bytes
     * already sent stay sent). Transfers queued behind it shift earlier.
     * No-op (empty result) when `id` is absent or already finished by `t`.
     *
     * @return ids whose occupancy window changed.
     */
    std::vector<std::int64_t> cancel(std::int64_t id, double t);

    /**
     * @return the current window of reservation `id`; NaN bounds when the
     *         id was never reserved or its reservation was cancelled
     *         before starting.
     */
    Window window(std::int64_t id) const;

    /** @return the time the link next frees up (0 when never used). */
    double busy_until() const;

    /** @return seconds a `bytes`-sized transfer occupies the link. */
    double occupancy(double bytes) const;

    /** @return the link specification in use. */
    const LinkSpec& link() const { return link_; }

  private:
    struct Entry
    {
        std::int64_t id;
        double req;    ///< request time (earliest possible start)
        double bytes;
        double start;
        double end;
        bool cancelled;
    };

    LinkSpec link_;
    std::vector<Entry> entries_;  ///< FIFO reservation order
};

} // namespace shiftpar::hw
