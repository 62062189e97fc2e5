#include "serving/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

namespace specontext {
namespace serving {

const char *
scaleActionName(ScaleAction a)
{
    switch (a) {
      case ScaleAction::Attach: return "attach";
      case ScaleAction::WarmComplete: return "warm-complete";
      case ScaleAction::CancelWarming: return "cancel-warming";
      case ScaleAction::Drain: return "drain";
      case ScaleAction::Retire: return "retire";
    }
    return "?";
}

double
replicaWarmupSeconds(const ReplicaConfig &rc, double provision_seconds)
{
    if (!(provision_seconds >= 0.0) ||
        !std::isfinite(provision_seconds))
        throw std::invalid_argument(
            "replicaWarmupSeconds: provision_seconds must be finite "
            "and non-negative");
    const double bw_gbps = rc.timing.hw.pcie_bw_gbps;
    if (!(bw_gbps > 0.0) || !std::isfinite(bw_gbps))
        throw std::invalid_argument(
            "replicaWarmupSeconds: hardware has no positive PCIe "
            "bandwidth to load weights over");
    rc.timing.llm.validate(); // the token size below must be positive
    const int64_t weight_bytes =
        core::weightFootprintBytes(rc.timing.llm);
    const int64_t bytes_per_token =
        core::kvBytesPerTokenPerLayer(rc.timing.llm);
    // Rounded up to whole KV-token units: golden digests and
    // BENCH_autoscale.json pin this rounding.
    const int64_t tokens =
        (weight_bytes + bytes_per_token - 1) / bytes_per_token;
    const double load_bytes = static_cast<double>(tokens) *
                              static_cast<double>(bytes_per_token);
    return provision_seconds + load_bytes / (bw_gbps * 1e9);
}

namespace {

/**
 * Validate the router config, every replica config and, with a
 * controller plugged in, the elastic knobs (see Cluster::Cluster);
 * stamps replica ids and names into `cfg`. Returns the template
 * replica's warmup price — fixed for the fleet's lifetime — or 0 on a
 * fixed fleet.
 */
double
validateFleet(const core::TimingEngine &engine, ClusterConfig &cfg)
{
    if (cfg.replicas.empty())
        throw std::invalid_argument("Cluster: empty fleet");
    cfg.router.validate();
    for (size_t i = 0; i < cfg.replicas.size(); ++i) {
        cfg.replicas[i].id = static_cast<int64_t>(i);
        // Validate every replica config now (throws on wave-only or
        // null systems / bad max_batch), not at first run(). The probe
        // runs unobserved — a throwaway engine must not emit events or
        // resolve counters.
        ReplicaConfig probe_cfg = cfg.replicas[i];
        probe_cfg.obs = {};
        ReplicaEngine probe(engine, probe_cfg);
        cfg.replicas[i].name = probe.config().name;
    }
    if (!cfg.elastic.controller)
        return 0.0;
    const ElasticConfig &e = cfg.elastic;
    if (e.min_replicas < 1)
        throw std::invalid_argument(
            "Cluster: elastic.min_replicas must be >= 1");
    if (e.max_replicas < e.min_replicas)
        throw std::invalid_argument(
            "Cluster: elastic.max_replicas < min_replicas");
    if (cfg.replicas.size() < e.min_replicas ||
        cfg.replicas.size() > e.max_replicas)
        throw std::invalid_argument(
            "Cluster: initial fleet size outside elastic "
            "[min_replicas, max_replicas]");
    if (!(e.control_period_seconds > 0.0) ||
        !std::isfinite(e.control_period_seconds))
        throw std::invalid_argument(
            "Cluster: elastic.control_period_seconds must be "
            "positive and finite");
    if (e.template_replica >= cfg.replicas.size())
        throw std::invalid_argument(
            "Cluster: elastic.template_replica out of range");
    // Validates provision_seconds and the template's PCIe link.
    return replicaWarmupSeconds(cfg.replicas[e.template_replica],
                                e.provision_seconds);
}

} // namespace

Cluster::Cluster(const core::TimingEngine &engine, ClusterConfig cfg)
    : engine_(engine), cfg_(std::move(cfg)),
      warmup_seconds_(validateFleet(engine_, cfg_))
{
}

ClusterResult
Cluster::run(std::vector<Request> trace) const
{
    // Reject a malformed request before any replica exists, not when
    // it reaches ReplicaEngine::deliver mid-simulation. A NaN arrival
    // would break the arrival sort (requests silently vanish), an
    // infinite one never comes due, and a negative one trips the
    // delivery-order guard with a misleading message.
    for (const Request &r : trace) {
        if (!std::isfinite(r.arrival_seconds) || r.arrival_seconds < 0.0)
            throw std::invalid_argument(
                "Cluster: request " + std::to_string(r.id) +
                " has arrival_seconds " + std::to_string(r.arrival_seconds) +
                "; it must be finite and non-negative");
        if (!r.prompt_tokens.empty() &&
            static_cast<int64_t>(r.prompt_tokens.size()) != r.prompt_len)
            throw std::invalid_argument(
                "Cluster: request " + std::to_string(r.id) + " has " +
                std::to_string(r.prompt_tokens.size()) +
                " prompt_tokens but prompt_len " +
                std::to_string(r.prompt_len));
    }
    sortByArrival(trace);
    const bool elastic = cfg_.elastic.controller != nullptr;
    constexpr double inf = std::numeric_limits<double>::infinity();

    std::vector<std::unique_ptr<ReplicaEngine>> fleet;
    fleet.reserve(cfg_.replicas.size());
    for (const ReplicaConfig &rc : cfg_.replicas) {
        if (cfg_.obs.enabled()) {
            ReplicaConfig observed = rc;
            observed.obs = cfg_.obs;
            fleet.push_back(
                std::make_unique<ReplicaEngine>(engine_, observed));
        } else {
            fleet.push_back(
                std::make_unique<ReplicaEngine>(engine_, rc));
        }
        fleet.back()->setDecodeCostCache(
            cfg_.fast_path.cache_decode_costs);
    }
    Router router(cfg_.router);
    router.attachObservability(cfg_.obs, fleet.size());
    obs::TimeseriesSampler *sampler = cfg_.obs.sampler;

    ClusterResult out;
    size_t next = 0;

    // Per-slot state, one record per slot ever attached. Fixed fleets
    // never leave Live, and retired slots keep their indices —
    // routing, tie-breaks and counter names never shift under scaling.
    enum class State { Live, Warming, Draining, Retired };
    struct Slot
    {
        State state = State::Live;
        // Booking cache: a lane's next-event instant and admission cap
        // change only when the lane itself steps, receives a delivery
        // or changes lifecycle state, so the fast path re-books dirty
        // lanes instead of calling into all N engines every event.
        // The reference loop re-books every lane every event; cached
        // or re-derived, the booked values are identical, so event
        // order never changes.
        bool dirty = true;
        double t = inf;   ///< booked next-event instant
        double cap = inf; ///< nextPossibleAdmissionSeconds() when booked
        double warm_ready = 0.0; ///< instant a Warming slot goes Live
        double attach_t = 0.0;   ///< billing starts (0: initial fleet)
        double retire_t = inf;   ///< billing ends (inf: never retired)
        obs::CounterRegistry::Handle fires = 0; ///< clock.lane<i>.fires
    };
    std::vector<Slot> slot(fleet.size());
    // Non-retired slots, ascending: the event loop's lane scans walk
    // this instead of every slot ever attached (an elastic run that
    // attached 60 replicas keeps only a handful alive at a time).
    // 4-byte entries: a size_t list measured ~4% slower on the fixed
    // 4-replica prefix-churn fleet, this one within noise of scanning
    // every slot.
    std::vector<uint32_t> lanes(fleet.size());
    std::iota(lanes.begin(), lanes.end(), uint32_t{0});
    auto countState = [&](State st) {
        size_t n = 0;
        for (const Slot &s : slot)
            n += s.state == st ? 1 : 0;
        return n;
    };

    // Fleet-shape gauges and scale counters exist only on elastic runs
    // so fixed-fleet registries keep the pre-elastic schema (BENCH_obs
    // byte-stability).
    obs::CounterRegistry *counters =
        elastic ? cfg_.obs.counters : nullptr;
    obs::CounterRegistry::Handle g_live = 0, g_warming = 0,
                                 g_draining = 0, c_ups = 0, c_downs = 0;
    auto publishFleetGauges = [&]() {
        if (!counters)
            return;
        counters->set(g_live,
                      static_cast<int64_t>(countState(State::Live)));
        counters->set(g_warming,
                      static_cast<int64_t>(countState(State::Warming)));
        counters->set(g_draining,
                      static_cast<int64_t>(countState(State::Draining)));
    };
    if (counters) {
        g_live = counters->gauge("cluster.live_replicas");
        g_warming = counters->gauge("cluster.warming_replicas");
        g_draining = counters->gauge("cluster.draining_replicas");
        c_ups = counters->counter("cluster.scale_ups");
        c_downs = counters->counter("cluster.scale_downs");
        publishFleetGauges();
    }

    // Event-loop activity counters: clock.rounds (lane picks the loop
    // resolved; an era steps several lanes in one round and fires none
    // of them, so this is not a count of lane steps),
    // clock.lane_updates (lane bookings) and clock.lane<i>.fires (how
    // often each lane won a round — fleet balance at a glance).
    obs::CounterRegistry *loop_counters = cfg_.obs.counters;
    obs::CounterRegistry::Handle c_rounds = 0, c_lane_updates = 0;
    auto registerLaneFires = [&](size_t i) {
        if (loop_counters)
            slot[i].fires = loop_counters->counter(
                "clock.lane" + std::to_string(i) + ".fires");
    };
    if (loop_counters) {
        c_rounds = loop_counters->counter("clock.rounds");
        c_lane_updates = loop_counters->counter("clock.lane_updates");
    }
    for (size_t i = 0; i < slot.size(); ++i)
        registerLaneFires(i);

    auto scaleEvent = [&](double t, ScaleAction a, size_t i) {
        const size_t live_after = countState(State::Live);
        out.scale_events.push_back(
            {t, a, static_cast<int64_t>(i), live_after});
        OBS_EVENT(cfg_.obs.trace, obs::EventType::FleetScale, t,
                  static_cast<int32_t>(i), int64_t{-1},
                  static_cast<int64_t>(a),
                  static_cast<int64_t>(live_after));
        publishFleetGauges();
    };

    // Replicas currently accepting new work. The set changes only on
    // lifecycle transitions (warm-complete, drain, retire, attach), so
    // it is cached in a reusable buffer instead of rebuilt per routed
    // arrival — fixed fleets build it exactly once.
    std::vector<size_t> routable;
    bool routable_stale = true;
    auto routableSet = [&]() -> const std::vector<size_t> & {
        if (routable_stale) {
            routable.clear();
            for (size_t i = 0; i < slot.size(); ++i) {
                if (slot[i].state == State::Live)
                    routable.push_back(i);
            }
            routable_stale = false;
        }
        return routable;
    };

    // Route every arrival at or before t, in arrival order, against
    // the fleet's current state. Called both from the event loop (when
    // the next arrival is the earliest event) and from inside a
    // replica's step (a prefill advanced its clock past arrivals).
    auto routeUpTo = [&](double t) {
        while (next < trace.size() &&
               trace[next].arrival_seconds <= t) {
            const size_t target =
                router.route(trace[next], fleet, routableSet());
            OBS_EVENT(cfg_.obs.trace, obs::EventType::RouterPlace,
                      trace[next].arrival_seconds,
                      static_cast<int32_t>(target), trace[next].id,
                      trace[next].prompt_len,
                      static_cast<int64_t>(cfg_.router.policy));
            out.placements.push_back(
                {trace[next].id, static_cast<int64_t>(target)});
            // The slot is never read again, so the request moves on
            // without even a refcount bump on its prompt_tokens.
            fleet[target]->deliver(std::move(trace[next]));
            slot[target].dirty = true;
            ++next;
        }
    };

    auto attachReplica = [&](double t) {
        ReplicaConfig rc = cfg_.replicas[cfg_.elastic.template_replica];
        rc.id = static_cast<int64_t>(fleet.size());
        rc.name.clear(); // regenerate "replica<id>(...)" for this slot
        rc.obs = cfg_.obs.enabled() ? cfg_.obs : obs::Observability{};
        fleet.push_back(std::make_unique<ReplicaEngine>(engine_, rc));
        fleet.back()->setDecodeCostCache(
            cfg_.fast_path.cache_decode_costs);
        slot.emplace_back();
        slot.back().state = State::Warming;
        slot.back().warm_ready = t + warmup_seconds_;
        slot.back().attach_t = t;
        registerLaneFires(slot.size() - 1);
        routable_stale = true;
        lanes.push_back(static_cast<uint32_t>(fleet.size() - 1));
        if (counters)
            counters->add(c_ups, 1);
        scaleEvent(t, ScaleAction::Attach, fleet.size() - 1);
    };

    auto retireSlot = [&](double t, size_t i, ScaleAction how) {
        slot[i].state = State::Retired;
        lanes.erase(std::lower_bound(lanes.begin(), lanes.end(), i));
        routable_stale = true;
        slot[i].retire_t = t;
        scaleEvent(t, how, i);
    };

    auto scaleDownOne = [&](double t) {
        if (counters)
            counters->add(c_downs, 1);
        // Cancel the youngest warming replica first: reclaiming a
        // machine that never served is strictly cheaper than draining
        // one that does.
        for (size_t k = slot.size(); k-- > 0;) {
            if (slot[k].state == State::Warming) {
                retireSlot(t, k, ScaleAction::CancelWarming);
                return;
            }
        }
        // Then drain the highest-index live replica — the low-index
        // initial slots stay the long-lived core of the fleet, which
        // keeps prefix-affinity homes and tie-breaks maximally stable.
        for (size_t k = slot.size(); k-- > 0;) {
            if (slot[k].state == State::Live) {
                slot[k].state = State::Draining;
                routable_stale = true;
                slot[k].dirty = true;
                scaleEvent(t, ScaleAction::Drain, k);
                if (fleet[k]->outstanding() == 0)
                    retireSlot(t, k, ScaleAction::Retire);
                return;
            }
        }
    };

    auto controlTick = [&](double t) {
        FleetState s;
        s.now_seconds = t;
        s.live = countState(State::Live);
        s.warming = countState(State::Warming);
        s.draining = countState(State::Draining);
        s.min_replicas = cfg_.elastic.min_replicas;
        s.max_replicas = cfg_.elastic.max_replicas;
        for (size_t i = 0; i < fleet.size(); ++i) {
            if (slot[i].state == State::Live ||
                slot[i].state == State::Draining) {
                s.queued += fleet[i]->waiting();
                s.in_flight += fleet[i]->inFlight();
            }
        }
        const int delta = cfg_.elastic.controller->control(s);
        // Clamp so live + warming (the capacity that will serve) stays
        // inside [min, max]; draining replicas are already spent.
        const int64_t cap = static_cast<int64_t>(s.live + s.warming);
        const int64_t want = std::min(
            static_cast<int64_t>(cfg_.elastic.max_replicas),
            std::max(static_cast<int64_t>(cfg_.elastic.min_replicas),
                     cap + static_cast<int64_t>(delta)));
        for (int64_t k = cap; k < want; ++k)
            attachReplica(t);
        for (int64_t k = cap; k > want; --k)
            scaleDownOne(t);
    };

    // Simulator fast path. Skip-ahead lets the fired replica run bulk
    // pure-decode rounds up to the earliest boundary this loop owns;
    // era stepping additionally runs *all* eligible lanes' bulk
    // windows in one pass, inline in lane-index order, when nothing
    // below the barrier could interact. Observed fleets take eras
    // too: an era's trace events arrive lane by lane (per-lane time
    // order, which is all analyzeTrace needs), counters only add, and
    // the barrier stops at the next sampler crossing, so every row
    // reads what lane-at-a-time stepping would have left. Simulated
    // results are the same either way: pure-decode rounds are
    // engine-local. With skip-ahead off — the reference loop — the
    // same loop re-books every lane every event and every step's
    // horizon is -infinity: one round per step, no era.
    const bool rebook_all = !cfg_.fast_path.skip_ahead;

    // One std::function conversion for the whole run: passing the
    // routing lambda to ReplicaEngine::step by const reference
    // otherwise constructs (and heap-allocates) a fresh wrapper per
    // admission-capable step — a top-three allocation site at
    // million-request scale.
    const ReplicaEngine::IngestFn ingest_fn = routeUpTo;

    // Event-driven main loop: advance whichever comes first, the next
    // unrouted arrival, the next control tick (elastic only) or the
    // earliest replica event — never lock-stepping the fleet. At equal
    // instants arrivals route first (so the controller and every
    // stepping replica see state no older than the instant), then the
    // controller runs, then replicas step.
    double t_ctrl =
        elastic ? cfg_.elastic.control_period_seconds : inf;
    while (true) {
        // One booking scan per event. It re-books dirty lanes (every
        // lane in the reference loop) and picks the earliest event:
        // strict <, so equal instants go to the lowest slot index,
        // and lane 0 when all idle. The same pass tracks the two
        // smallest admission caps. No lane may bulk-run past the
        // earliest instant at which any OTHER lane could run an
        // admission round, because admission prefills invoke routeUpTo
        // — which reads every replica's state — and the router must
        // see each peer exactly where one-round-per-step execution
        // would have it. Tracking two lets the fired lane exclude its
        // own (a lane that can admit reports now() and would otherwise
        // never bulk at all).
        double cap_min1 = inf, cap_min2 = inf;
        size_t cap_min1_lane = fleet.size();
        double t_replica = inf;
        size_t lane = 0;
        int64_t bookings = 0;
        for (const uint32_t i : lanes) {
            Slot &s = slot[i];
            if (s.state == State::Warming) {
                s.t = s.warm_ready;
                ++bookings;
                if (s.t < t_replica) {
                    t_replica = s.t;
                    lane = i;
                }
                continue;
            }
            if (s.dirty || rebook_all) {
                s.t = fleet[i]->nextEventSeconds();
                s.cap = fleet[i]->nextPossibleAdmissionSeconds();
                s.dirty = false;
                ++bookings;
            }
            if (s.t < t_replica) {
                t_replica = s.t;
                lane = i;
            }
            if (s.cap < cap_min1) {
                cap_min2 = cap_min1;
                cap_min1 = s.cap;
                cap_min1_lane = i;
            } else if (s.cap < cap_min2) {
                cap_min2 = s.cap;
            }
        }
        if (loop_counters)
            loop_counters->add(c_lane_updates, bookings);
        const double t_arrival = next < trace.size()
                                     ? trace[next].arrival_seconds
                                     : inf;
        // Control ticks live only while there is work to govern —
        // otherwise they would keep a drained fleet ticking forever.
        const double t_control =
            elastic && (next < trace.size() || std::isfinite(t_replica))
                ? t_ctrl
                : inf;
        if (!std::isfinite(t_replica) && !std::isfinite(t_arrival))
            break; // fleet drained, trace exhausted
        // Time-series rows are cut as simulated time passes each
        // cadence point — before the round runs, so a row reflects
        // the fleet's state entering that instant.
        if (sampler) {
            const double t_now =
                std::min(std::min(t_replica, t_arrival), t_control);
            if (std::isfinite(t_now))
                sampler->sample(t_now);
        }
        if (t_arrival <= std::min(t_replica, t_control)) {
            // Arrivals route before any replica reaches t_arrival, so
            // the same-instant ordering matches the single server's
            // ingest-then-admit discipline.
            routeUpTo(t_arrival);
            continue;
        }
        if (t_control <= t_replica) {
            controlTick(t_control);
            t_ctrl += cfg_.elastic.control_period_seconds;
            continue;
        }
        // Skip-ahead horizon: every boundary this loop owns that a
        // bulk-stepping replica must not cross — the next unrouted
        // arrival (routing reads all replica states), the next control
        // tick (the controller polls gauges), and the next sampler
        // cadence crossing (rows snapshot the registry).
        double horizon = -inf;
        if (!rebook_all) {
            horizon = std::min(t_arrival, t_control);
            if (sampler)
                horizon =
                    std::min(horizon, sampler->nextSampleSeconds());
        }
        // Era stepping: when every lane with an event below the
        // barrier is an independently advancing pure-decode lane,
        // their bulk runs cannot interact — no routing, no admission,
        // no sampler row inside the barrier — so one scan steps all of
        // them through their windows. The barrier includes every lane's
        // admission cap, so a lane about to admit (cap == its event)
        // is simply above the barrier rather than disqualifying; it
        // fires on its own right after the era. A lane whose queue is
        // backlogged behind a full batch is pure decode too: it cannot
        // admit before its next retirement (or Optimistic preemption),
        // so it joins the era and its cap sits that many
        // weight-streaming floors past its clock; an Optimistic lane
        // with an empty queue caps at its next possible preemption.
        // Warming lanes below the barrier are fine to leave booked
        // (their WarmComplete fires right after the era, at its own
        // instant); a draining lane below the barrier falls back to
        // the sequential path, which preserves scale-event order
        // exactly. Every lane stops at the same uniform barrier the
        // sequential loop would impose on it (never its own widened
        // cap_min2 horizon: a peer's recomputed cap can land between
        // cap_min1 and cap_min2, and overrunning it would let this
        // lane's retirements be visible to a routing decision that
        // must not see them yet), so chunk boundaries differ from
        // lane-at-a-time stepping but every simulated quantity is
        // bit-identical. No lane is below a barrier the earliest event
        // does not undercut, and none is below the reference loop's
        // -infinity.
        const double barrier = std::min(horizon, cap_min1);
        if (t_replica < barrier) {
            bool era_ok = true;
            size_t bulk_lanes = 0;
            for (const uint32_t i : lanes) {
                if (!(slot[i].t < barrier))
                    continue;
                if (slot[i].state == State::Warming)
                    continue;
                if (slot[i].state != State::Live ||
                    !fleet[i]->pureDecodeReady()) {
                    era_ok = false;
                    break;
                }
                ++bulk_lanes;
            }
            if (era_ok && bulk_lanes >= 2) {
                // Stepping a lane changes only its own engine (its
                // booking is re-derived after the era), so this pass
                // visits exactly the lanes the scan above counted.
                for (const uint32_t i : lanes) {
                    if (slot[i].state != State::Live ||
                        !(slot[i].t < barrier) ||
                        !fleet[i]->pureDecodeReady())
                        continue;
                    slot[i].dirty = true;
                    fleet[i]->step(nullptr, barrier);
                }
                continue; // re-book every lane at its new event
            }
        }
        if (loop_counters) {
            loop_counters->add(c_rounds, 1);
            loop_counters->add(slot[lane].fires, 1);
        }
        if (slot[lane].state == State::Warming) {
            // Weight load finished: the replica joins the routable set
            // (its prefix cache starts cold; arrivals reach it from
            // the next routing decision on).
            slot[lane].state = State::Live;
            routable_stale = true;
            slot[lane].dirty = true;
            scaleEvent(slot[lane].warm_ready, ScaleAction::WarmComplete,
                       lane);
            continue;
        }
        // The fired lane's bulk horizon additionally respects every
        // OTHER lane's admission cap (its own is excluded — a lane
        // that can admit reports now() and still gets to run its
        // admission round plus any pure-decode rounds that follow).
        // Draining lanes step one round at a time even under
        // skip-ahead: their Retire transition must interleave with
        // other lanes' scale events in exact simulated-time order, and
        // a bulk run would let one lane race past another's retirement
        // instant before the log catches up.
        const double lane_horizon = std::min(
            horizon, lane == cap_min1_lane ? cap_min2 : cap_min1);
        fleet[lane]->step(ingest_fn, slot[lane].state == State::Draining
                                         ? -inf
                                         : lane_horizon);
        slot[lane].dirty = true;
        // Drain-before-retire: a draining replica's lane retires the
        // moment it owes nothing more.
        if (slot[lane].state == State::Draining &&
            fleet[lane]->outstanding() == 0)
            retireSlot(fleet[lane]->now(), lane, ScaleAction::Retire);
    }

    // Aggregate: per-replica results plus the fleet-wide roll-up.
    out.per_replica.reserve(fleet.size());
    for (const auto &rep : fleet) {
        out.replica_names.push_back(rep->config().name);
        out.per_replica.push_back(rep->takeResult());
    }
    for (const ServeResult &r : out.per_replica) {
        out.fleet.metrics.merge(r.metrics);
        out.fleet.rejected.insert(out.fleet.rejected.end(),
                                  r.rejected.begin(), r.rejected.end());
        out.fleet.iterations += r.iterations;
        out.fleet.steps += r.steps;
        out.fleet.fit_queries += r.fit_queries;
        out.fleet.peak_in_flight += r.peak_in_flight;
        out.fleet.prefix.merge(r.prefix);
        out.fleet.preempt.merge(r.preempt);
        out.fleet.makespan_seconds =
            std::max(out.fleet.makespan_seconds, r.makespan_seconds);
    }
    // Cost accounting: every slot is paid for from attach (run start
    // for the initial fleet) to retirement, or to the fleet makespan
    // while still attached — warmup included, a provisioning replica
    // is billed before it serves.
    for (size_t i = 0; i < slot.size(); ++i) {
        const double end = std::isfinite(slot[i].retire_t)
                               ? slot[i].retire_t
                               : out.fleet.makespan_seconds;
        out.replica_seconds += std::max(0.0, end - slot[i].attach_t);
    }
    // Final flush: one last row at the fleet makespan — including a
    // partial row when the run ends between cadence instants — so the
    // series always covers the whole run.
    if (sampler)
        sampler->flush(out.fleet.makespan_seconds);
    return out;
}

} // namespace serving
} // namespace specontext
