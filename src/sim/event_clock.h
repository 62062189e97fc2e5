/**
 * @file
 * N-lane event clock: the generalization of the two-stream Timeline's
 * scheduling idea to a fleet of independently advancing replicas.
 *
 * Where sim::Timeline interleaves exactly two CUDA streams inside one
 * device, EventClock tracks one "next event" instant per lane (one
 * lane per cluster replica) and answers the discrete-event scheduler's
 * question: which lane fires next (earliest instant, ties toward the
 * lowest lane — bit-reproducible). Lanes may be +infinity ("idle, no
 * event booked"), which earliest() reports when every lane is idle.
 *
 * Lanes are elastic: addLane() books a new lane at the end of the
 * index space (an autoscaled replica attaching mid-run) and
 * retireLane() permanently idles one (a drained replica detaching).
 * Retired lanes keep their slot — indices of surviving lanes never
 * shift — so the earliest-lane scan visits lanes in the same order
 * before and after a retirement and tie-breaks stay bit-reproducible.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "obs/obs.h"

namespace specontext {
namespace sim {

/** Per-lane next-event times with deterministic earliest-lane picks. */
class EventClock
{
  public:
    /** All lanes start at +infinity (idle).
     *  @throws std::invalid_argument on zero lanes. */
    explicit EventClock(size_t lanes);

    size_t lanes() const { return times_.size(); }

    /** Next-event instant of `lane` (+infinity when idle). */
    double at(size_t lane) const;

    /** Book `lane`'s next event at `t` (+infinity to mark it idle).
     *  NaN is rejected — it would poison the min/max scans.
     *  @throws std::logic_error on a retired lane (a detached replica
     *  can never book events again). */
    void set(size_t lane, double t);

    /**
     * Attach a new lane (idle, +infinity) at the end of the index
     * space and return its index. Existing lanes — including retired
     * ones, whose slots are kept — are not reindexed, so bookings and
     * tie-break order survive the growth. With a counter registry
     * attached the new lane's fire counter is resolved immediately.
     */
    size_t addLane();

    /**
     * Permanently idle `lane`: its instant becomes +infinity, set() on
     * it throws, and it can never win a round again. The slot is kept
     * (indices are stable; earliestLane()'s scan order is unchanged),
     * so tie-breaks among surviving lanes are exactly what they were
     * with the lane merely idle. Idempotent.
     */
    void retireLane(size_t lane);

    /** True when `lane` has been retired. */
    bool laneRetired(size_t lane) const { return retired_.at(lane); }

    /** Lanes not yet retired. */
    size_t liveLanes() const;

    /** Lane with the earliest booked event; ties break toward the
     *  lowest lane index. Defined (lane 0) even when all lanes are
     *  idle — check earliest() for infinity first. */
    size_t earliestLane() const;

    /** Earliest booked instant (+infinity when every lane is idle). */
    double earliest() const;

    /**
     * Publish scheduling counters into `obs`: clock.rounds (fire()
     * calls — event-loop rounds resolved; an event loop that steps
     * several lanes per round fires none of them, so this is not a
     * count of lane steps), clock.lane_updates (set()
     * calls) and clock.lane<i>.fires (how often each lane won the
     * round — fleet balance at a glance). No-op without a registry.
     */
    void attachObservability(const obs::Observability &obs);

    /** earliestLane() plus round accounting — the event loop's "this
     *  lane fires next" pick. */
    size_t fire();

    /** Round accounting for a lane the caller already picked with
     *  earliestLane() — fire() without the redundant rescan, for an
     *  event loop that needed the earliest instant anyway. */
    void fireLane(size_t lane);

  private:
    std::vector<double> times_;
    std::vector<bool> retired_;

    /** Always-on scheduling counters (null = observability off). */
    obs::CounterRegistry *counters_ = nullptr;
    obs::CounterRegistry::Handle rounds_ = 0;
    obs::CounterRegistry::Handle lane_updates_ = 0;
    std::vector<obs::CounterRegistry::Handle> lane_fires_;
};

} // namespace sim
} // namespace specontext
