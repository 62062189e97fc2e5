/**
 * @file
 * Simulator fast-path switches shared by serving::Server and
 * serving::Cluster. Both defaults are chosen so that flipping nothing
 * is already fast AND bit-exact; turning both off gives the reference
 * loop that tests, bench_simperf and the perf benchmark use as the
 * oracle.
 *
 *  - skip_ahead (default on) lets a replica execute runs of
 *    pure-decode rounds inside one ReplicaEngine::step() call instead
 *    of returning to the event loop per token. The driver bounds each
 *    run by the next boundary it owns (unrouted arrival, control
 *    tick, sampler cadence crossing), and the engine stops on its own
 *    at any internal boundary (admission work, preemption re-entry,
 *    drain) — so every simulated quantity is bit-identical to
 *    one-round-per-step execution; tests/test_simfast.cc pins it.
 *    On a multi-replica fleet, observed or not, it also enables *era
 *    stepping* in Cluster::run. The barrier is the earliest of the
 *    event loop's next boundary and every lane's admission cap (the
 *    earliest instant the lane could next admit,
 *    ReplicaEngine::nextPossibleAdmissionSeconds). When every lane
 *    with an event below it is an independently advancing
 *    pure-decode lane, one booking scan runs ALL of them through
 *    their bulk windows to the barrier, inline in lane-index order,
 *    instead of firing one lane per scan. Pure-decode rounds touch
 *    only their own engine, so the results are bit-identical again.
 *    An era also stops the lane that owns the earliest cap there,
 *    where fired alone it would run on to the second-earliest, so
 *    eras pay only while caps sit well past the clocks. They do: a
 *    backlogged lane caps at its next retirement or preemption, and
 *    an Optimistic lane with an empty queue only at its next
 *    preemption, since its retirements admit nothing. On a 4-vCPU
 *    host, eras off left the perfbench prefix-churn workload within
 *    noise (1.01x) and cost bench_simperf's 16-lane fast rows ~40%.
 *    Turning skip_ahead off runs the same loop and the same booking
 *    scan as the reference: every lane is re-booked every event
 *    instead of only the lanes that changed, and every step's horizon
 *    is -infinity, so each step runs one round, no admission cap
 *    applies and no era forms.
 *
 *  - cache_decode_costs (default on) gives every replica lane one
 *    core::SystemPricer for the whole run: the cost model's pure
 *    per-config derivations (cost-model construction, memory-model
 *    geometry, validation) are built once per (replica, batch size),
 *    and pure-decode rounds run as bulk windows. Turning it off prices
 *    every simulated decode iteration and admission prefill on a
 *    fresh pricer, one round at a time — the reference loop. Both run
 *    the same arithmetic on the same values, so every simulated
 *    duration is bit-identical.
 */
#pragma once

namespace specontext {
namespace serving {

/** Engine-speed switches; simulated results never depend on them. */
struct SimFastPath
{
    /** Bulk pure-decode stepping between external boundaries, plus
     *  era stepping across multi-replica fleets. */
    bool skip_ahead = true;
    /** Cached per-lane decode/prefill pricer (bit-identical). */
    bool cache_decode_costs = true;
};

} // namespace serving
} // namespace specontext
