/**
 * @file
 * Request router of the multi-replica cluster: picks which replica a
 * newly arrived request is delivered to. Dispatch-to-replicas is the
 * fleet's first-class scheduling decision (the scaling analogue of
 * exposed-datapath dispatch-to-units), so policies are pluggable:
 *
 *  - RoundRobin: cycle through the fleet — the oblivious baseline.
 *  - JoinShortestQueue: fewest outstanding requests.
 *  - LeastKvLoad: smallest fraction of KV capacity reserved, where
 *    each replica's reservation sums the final-length KV of everything
 *    it owes work to (the same pessimistic booking its
 *    SystemPricer::admit() discipline applies) and capacity is the HBM
 *    left next to the weights — so heterogeneous replicas compare by
 *    *fractional* memory pressure, not absolute tokens.
 *  - TwoTier: prompt-length-aware placement — prompts of at least
 *    long_prompt_threshold tokens go to the big-HBM tier (replicas
 *    whose GPU memory equals the fleet maximum), short prompts prefer
 *    the small tier so long-context capacity stays available;
 *    join-shortest-queue inside the chosen tier.
 *  - PrefixAffinity: route to the replica already holding the longest
 *    cached prefix of the request's prompt tokens (ties break to the
 *    least KV-loaded, then lowest index). When no replica holds any
 *    of it, a cold prompt is hashed by its first cache block so every
 *    request of the same prompt family lands on the same sticky home
 *    from the very first arrival (one fleet-wide prefill per family
 *    instead of one per replica); requests without prompt tokens fall
 *    back to least-kv-load. Affinity is load-escaped: when the sticky
 *    pick owes more than affinity_spill_slack requests beyond the
 *    least-loaded candidate, the request spills to least-kv-load —
 *    re-prefilling a prefix is cheaper than queueing behind a hot
 *    family (cache-aware load balancing). Degenerates to
 *    least-kv-load when no replica has a prefix cache.
 *
 * Every policy first drops replicas that could not serve the request
 * even alone (admission's feasibleAlone(), i.e. the per-replica
 * SystemModel memory discipline); when no replica is feasible the
 * policy runs over the whole fleet and the chosen replica hard-rejects
 * the request, keeping rejection accounting policy-independent.
 * Ties always break toward the lowest replica index, so placements
 * are bit-reproducible.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/obs.h"
#include "serving/replica_engine.h"

namespace specontext {
namespace serving {

/** Placement policy of the cluster router. */
enum class RouterPolicy {
    RoundRobin,
    JoinShortestQueue,
    LeastKvLoad,
    TwoTier,
    PrefixAffinity,
};

const char *routerPolicyName(RouterPolicy p);

/** Router knobs. */
struct RouterConfig
{
    RouterPolicy policy = RouterPolicy::RoundRobin;
    /** TwoTier: prompts at least this long route to big-HBM replicas. */
    int64_t long_prompt_threshold = 8192;
    /** PrefixAffinity: outstanding-request headroom the sticky pick
     *  may have over the least-loaded candidate before the request
     *  spills to least-kv-load (a hot family must not head-of-line
     *  block its home replica). */
    int64_t affinity_spill_slack = 2;

    /** Throws std::invalid_argument naming the first field out of
     *  range: policy must be a RouterPolicy enumerator and
     *  affinity_spill_slack >= 0. Router's constructor calls it, so a
     *  Cluster rejects a bad router config when it is built. */
    void validate() const;
};

/** Stateful placement engine (round-robin keeps a cursor). */
class Router
{
  public:
    /** @throws std::invalid_argument on an invalid config
     *  (RouterConfig::validate). */
    explicit Router(RouterConfig cfg = {});

    const RouterConfig &config() const { return cfg_; }

    /**
     * Publish placement counters into `obs`: router.placements (total
     * routing decisions), router.to_replica<i> (one per lane, so skew
     * is visible at a glance) and router.affinity_spills (sticky picks
     * abandoned for load). No-op when obs carries no registry; call
     * once, before the first route().
     */
    void attachObservability(const obs::Observability &obs,
                             size_t fleet_size);

    /**
     * Index of the replica `r` should be delivered to, given the
     * fleet's current state. Deterministic: ties break toward the
     * lowest index. Equivalent to the routable-subset overload with
     * every fleet index routable.
     * @throws std::invalid_argument on an empty fleet.
     */
    size_t route(const Request &r,
                 const std::vector<std::unique_ptr<ReplicaEngine>>
                     &replicas);

    /**
     * Candidate-set routing for elastic fleets: only the ascending
     * index subset `routable` (the replicas currently accepting new
     * work — live, not warming/draining/retired) is eligible. Slots
     * outside the subset keep their indices, so placements stay
     * bit-reproducible across scale events; every policy — including
     * the prefix-affinity cold hash and the two-tier HBM split — is
     * evaluated over the routable set only. With `routable` covering
     * the whole fleet this is bit-identical to the two-argument
     * overload.
     * @throws std::invalid_argument on an empty fleet or an empty
     * routable set.
     */
    size_t route(const Request &r,
                 const std::vector<std::unique_ptr<ReplicaEngine>>
                     &replicas,
                 const std::vector<size_t> &routable);

  private:
    /** The placement decision proper; route() wraps it with counting. */
    size_t pickReplica(const Request &r,
                       const std::vector<std::unique_ptr<ReplicaEngine>>
                           &replicas,
                       const std::vector<size_t> &routable,
                       int64_t *affinity_spills);

    /** PrefixAffinity: the candidate holding the longest cached prefix
     *  of `r` (sticky unless it is overloaded), else the cold family's
     *  hashed home, else least-kv-load. */
    size_t prefixAffinity(const Request &r,
                          const std::vector<size_t> &candidates,
                          const std::vector<std::unique_ptr<ReplicaEngine>>
                              &replicas,
                          const std::vector<size_t> &routable,
                          int64_t *affinity_spills);

    /** Fill `out` with the routable indices able to serve `r` at all;
     *  the whole routable set when none can (the pick then
     *  hard-rejects, keeping accounting policy-free). */
    static void feasibleReplicas(const Request &r,
                          const std::vector<std::unique_ptr<ReplicaEngine>>
                              &replicas,
                          const std::vector<size_t> &routable,
                          std::vector<size_t> &out);

    RouterConfig cfg_;
    size_t rr_cursor_ = 0;

    /** Feasible-candidate scratch reused across placements — routing
     *  runs once per arrival, and rebuilding this vector on the heap
     *  each time was the router's last per-arrival allocation. */
    std::vector<size_t> feasible_scratch_;
    /** PrefixAffinity scratch, reused the same way: per-candidate hit
     *  lengths, the warmest candidates, the cache-enabled homes. */
    std::vector<int64_t> hits_scratch_;
    std::vector<size_t> warmest_scratch_;
    std::vector<size_t> cached_scratch_;

    /** Always-on placement counters (null = observability off). */
    obs::CounterRegistry *counters_ = nullptr;
    obs::CounterRegistry::Handle placements_ = 0;
    obs::CounterRegistry::Handle affinity_spills_ = 0;
    std::vector<obs::CounterRegistry::Handle> to_replica_;
};

} // namespace serving
} // namespace specontext
