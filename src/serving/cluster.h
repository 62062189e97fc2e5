/**
 * @file
 * Multi-replica cluster serving: N ReplicaEngines — each with its own
 * hardware, model geometry and SystemModel (heterogeneous fleets of
 * cloud A800 and edge RTX 4060 replicas are first-class) — fed by a
 * pluggable Router, advanced by an event-driven clock.
 *
 * The global clock is not lock-stepped: one event loop books every
 * replica's next-event instant plus the next unrouted arrival, and
 * each round advances only the earliest of them (ties toward the
 * lowest replica index, arrivals before replica steps at equal
 * instants — both deterministic). Arrivals are routed when the fleet's
 * earliest event passes them, so routing decisions see every replica
 * at a state no older than the arrival; routed requests wait in the
 * target replica's pending list until its local clock reaches their
 * arrival time, preserving per-replica causality however far clocks
 * drift apart.
 *
 * This is the machinery behind the repo's central capacity question:
 * how many replicas of which hardware does a given open-loop load
 * need to hold a p99 TTFT target? (bench/bench_cluster_scaling.cc,
 * examples/fleet_sizing.cpp)
 *
 * Fleets can also be *elastic*: plug a FleetController into
 * ClusterConfig::elastic and the cluster evaluates it at a fixed
 * simulated-time cadence (a third event stream next to arrivals and
 * replica events). Scale-up attaches a fresh replica slot — a new
 * event-loop lane, cold kv::PrefixTree — that warms up for
 * replicaWarmupSeconds() (weight bytes over PCIe, priced once per
 * fleet) before it joins the routable set; scale-down
 * cancels warming replicas first, then drains live ones
 * (drain-before-retire: a draining replica finishes everything it
 * owes, receives no new work, then its lane retires). Retired slots
 * keep their indices, so placements and tie-breaks never shift under
 * scaling; with no controller the code path is bit-for-bit the fixed
 * fleet. (src/autoscale/ builds SLO-driven controllers on this hook;
 * bench/bench_autoscale.cc scores them on cost-normalized goodput.)
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serving/fast_path.h"
#include "serving/replica_engine.h"
#include "serving/router.h"

namespace specontext {
namespace serving {

/**
 * What a FleetController sees at each control tick: replica counts by
 * lifecycle state, the fleet-wide backlog, and the scaling bounds.
 * Deeper signals (p99 TTFT, live KV bytes, queue-depth histories) are
 * read from the obs::CounterRegistry / obs::TimeseriesSampler the
 * cluster publishes into — the controller polls gauges, the cluster
 * hands it the shape of the fleet.
 */
struct FleetState
{
    double now_seconds = 0.0;
    size_t live = 0;     ///< routable replicas
    size_t warming = 0;  ///< attached, still loading weights
    size_t draining = 0; ///< finishing owed work, not routable
    size_t min_replicas = 1;
    size_t max_replicas = 1;
    /** Requests delivered to live/draining replicas, not yet admitted. */
    int64_t queued = 0;
    /** Requests currently in a replica's running batch. */
    int64_t in_flight = 0;
};

/**
 * Scaling hook evaluated once per control tick. Implementations live
 * above serving (src/autoscale/); the cluster only consumes the
 * decision. Stateful controllers are fine — ticks arrive in strictly
 * increasing simulated time within one run(), but a controller is NOT
 * reset between runs, so reuse one instance per run for bit
 * reproducibility.
 */
class FleetController
{
  public:
    virtual ~FleetController() = default;

    /**
     * Desired replica-count delta at this tick: positive attaches that
     * many cold replicas, negative retires (cancel-warming first, then
     * drain), zero holds. The cluster clamps the result so live +
     * warming stays within [min_replicas, max_replicas].
     */
    virtual int control(const FleetState &state) = 0;
};

/** Elastic-fleet knobs; inert (fixed fleet) while controller is null. */
struct ElasticConfig
{
    /** Caller-owned; must outlive run(). Null = fixed fleet. */
    FleetController *controller = nullptr;
    /** Bounds on live + warming replicas. The initial fleet
     *  (ClusterConfig::replicas) must start inside them. */
    size_t min_replicas = 1;
    size_t max_replicas = 8;
    /** Simulated seconds between controller evaluations. */
    double control_period_seconds = 5.0;
    /** Fixed instance-provisioning latency added before the weight
     *  load of every scale-up (control plane, container pull, ...). */
    double provision_seconds = 0.0;
    /** Index into ClusterConfig::replicas whose shape scale-ups
     *  clone (fresh id/name, cold caches). */
    size_t template_replica = 0;
};

/** Fleet configuration: replica shapes plus the routing policy. */
struct ClusterConfig
{
    std::vector<ReplicaConfig> replicas;
    RouterConfig router;
    /** Fleet-wide observability (trace / counters / sampler). When any
     *  hook is set it is propagated to every replica, the router and
     *  the event loop's counters at run(); all-null (the default) is
     *  bit-for-bit the unobserved cluster. Pointers are caller-owned
     *  and must outlive run(). */
    obs::Observability obs;
    /** Elastic scaling; default (null controller) is the fixed fleet. */
    ElasticConfig elastic;
    /** Simulator speed switches: skip-ahead stepping (with era
     *  stepping across lanes) and cached decode costs, both
     *  on by default. Simulated results are bit-identical at every
     *  setting. */
    SimFastPath fast_path;
};

/**
 * Simulated seconds to bring a cold replica of shape `rc` live:
 * `provision_seconds` of instance provisioning plus the model's weight
 * footprint (1.3x FP16 parameters, core::weightFootprintBytes)
 * crossing PCIe at rc's link speed, so scale-up is never free. The
 * weight bytes are rounded up to whole KV-token units
 * (core::kvBytesPerTokenPerLayer), the unit the paper's Section 5.4
 * loading model moves.
 * @throws std::invalid_argument on a non-positive PCIe bandwidth, a
 * negative/non-finite provision time, or an invalid model geometry
 * (model::ModelConfig::validate).
 */
double replicaWarmupSeconds(const ReplicaConfig &rc,
                            double provision_seconds = 0.0);

/** Elastic fleet transition kinds, in the order they are logged. */
enum class ScaleAction {
    Attach,       ///< cold replica attached, warmup begins
    WarmComplete, ///< warmup finished, replica joined the routable set
    CancelWarming,///< scale-down reclaimed a replica mid-warmup
    Drain,        ///< live replica stopped accepting work
    Retire,       ///< drained (or cancelled) replica's lane retired
};

const char *scaleActionName(ScaleAction a);

/** One fleet transition, in simulated-time order — the controller
 *  decision log benches and examples replay. */
struct ScaleEvent
{
    double t_seconds = 0.0;
    ScaleAction action = ScaleAction::Attach;
    int64_t replica = 0;    ///< slot index (stable across retirement)
    size_t live_after = 0;  ///< routable replicas after the transition
};

/** One routing decision (request -> replica), in routed order. */
struct Placement
{
    int64_t request_id = 0;
    int64_t replica = 0;
};

/** Outcome of serving one trace on the fleet. */
struct ClusterResult
{
    /**
     * Fleet-wide aggregation: merged metrics (records keep replica
     * ids, so summarizeReplica() breaks them down again), concatenated
     * rejections, summed iterations, summed per-replica in-flight
     * peaks, merged prefix-cache counters (fleet hit rate / prefill
     * tokens saved), merged preemption counters (evictions, restores,
     * recompute tokens), and the fleet makespan (latest replica clock
     * at drain) — summary() works on it exactly as on a single
     * server's result.
     */
    ServeResult fleet;
    std::vector<ServeResult> per_replica;
    std::vector<std::string> replica_names;
    std::vector<Placement> placements;
    /** Elastic transitions in simulated-time order; empty on a fixed
     *  fleet. */
    std::vector<ScaleEvent> scale_events;
    /** Σ over slots of attached time (attach -> retire, or run start ->
     *  makespan while never retired) — the denominator of
     *  cost-normalized goodput (tokens per replica-second). Warmup
     *  time counts: a provisioning replica is paid for before it
     *  serves. On a fixed fleet this is fleet size x makespan. */
    double replica_seconds = 0.0;

    int64_t completed() const { return fleet.completed(); }
    ServingSummary summary() const { return fleet.summary(); }
};

/** Routed fleet of continuous-batching replicas. */
class Cluster
{
  public:
    /**
     * @throws std::invalid_argument when the fleet is empty, the
     * router config is invalid (RouterConfig::validate), any
     * replica config is invalid (null / wave-only system, non-positive
     * max_batch), or — with a controller plugged in — the elastic
     * knobs are degenerate (min < 1, max < min, initial fleet outside
     * [min, max], non-positive/non-finite control period, bad
     * provision time, template index out of range). Replica ids are
     * overwritten with fleet indices.
     */
    Cluster(const core::TimingEngine &engine, ClusterConfig cfg);

    const ClusterConfig &config() const { return cfg_; }

    /**
     * Serve an open-loop arrival trace to completion. Requests are
     * sorted by arrival time; ids are preserved. Each run builds a
     * fresh fleet and router, so a Cluster can serve many traces and
     * identical inputs give bit-identical results. Passing a trace by
     * copy is cheap: the copies share every prompt's tokens.
     * @throws std::invalid_argument, before any replica is built, when
     * a request's arrival_seconds is NaN, infinite or negative, or its
     * non-empty prompt_tokens disagrees in size with its prompt_len
     * (the message names the request id).
     */
    ClusterResult run(std::vector<Request> trace) const;

  private:
    const core::TimingEngine &engine_;
    ClusterConfig cfg_;
    /** replicaWarmupSeconds() of the elastic template replica, priced
     *  once at construction (0 on a fixed fleet); every attach reads
     *  it. */
    const double warmup_seconds_;
};

} // namespace serving
} // namespace specontext
