/**
 * @file
 * One continuous-batching replica as a steppable state machine — the
 * per-iteration loop extracted from serving::Server so a single engine
 * implementation drives both the single-server facade and the
 * multi-replica serving::Cluster.
 *
 * A ReplicaEngine owns one simulated device (its TimingConfig picks
 * the hardware, model geometry and SystemModel), the in-flight batch,
 * the prefix cache and a local clock; admission and preemption policy
 * live in the serving::Scheduler it embeds (which owns the waiting
 * queue and the lane's one pricer). The caller delivers
 * routed arrivals with deliver() and repeatedly invokes step(), which
 * runs one scheduling round at the replica's next event time:
 *
 *     admit while the Scheduler's discipline allows (each admission
 *     prefills the joiner, advancing the clock; in-flight requests
 *     stall for its duration) -> preempt victims while the next decode
 *     token would oversubscribe memory (Optimistic mode only) -> one
 *     decode iteration advancing every in-flight request by one token
 *     -> retire finished requests.
 *
 * Under SchedulerMode::Optimistic a preempted request releases its KV
 * and prefix-cache pins and re-enters the queue; its restore is
 * charged as a fresh prefill of prompt + already-generated tokens
 * (recompute) minus whatever prefix the cache still holds.
 *
 * Arrivals that land *during* a prefill must become admissible within
 * the same round (exactly what Server did with its trace cursor), so
 * step() takes an ingest callback invoked with the replica clock at
 * the round head and after every prefill; the cluster uses it to route
 * arrivals the advancing clock has just passed. Delivered requests
 * wait in a pending list until the replica clock reaches their arrival
 * time — a request can never be admitted before it arrives, however
 * early the router hands it over.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/timing_engine.h"
#include "kvcache/prefix_tree.h"
#include "obs/obs.h"
#include "serving/metrics.h"
#include "serving/request.h"
#include "serving/scheduler.h"

namespace specontext {
namespace serving {

/**
 * Per-replica prefix-cache knobs. With a non-zero budget the replica
 * keeps a kv::PrefixTree over the prompt tokens of admitted requests:
 * a request whose prompt prefix is cached skips prefill for the
 * matched tokens (TimingEngine charges only the uncached suffix), and
 * cached blocks occupy HBM that competes with live KV reservations —
 * the tree's budget is re-clamped every admission round to the
 * headroom sim::MemoryModel leaves next to the weights and the booked
 * KV. Budget 0 (the default) disables the cache and leaves the
 * replica's arithmetic bit-for-bit identical to the pre-cache engine.
 */
struct PrefixCacheConfig
{
    /** HBM byte budget for cached prefix KV; 0 disables the cache. */
    int64_t budget_bytes = 0;
    /** Tokens per cached block (match alignment). */
    int64_t page_size = 16;
};

/** Prefix-cache counters of one replica (or a fleet roll-up). */
struct PrefixCacheStats
{
    int64_t lookups = 0;      ///< admissions that consulted the cache
    int64_t hit_requests = 0; ///< admissions with a non-empty match
    /** Prompt tokens served from cache — the prefill work skipped. */
    int64_t hit_tokens = 0;
    /** Prompt tokens of every looked-up request (hit-rate denominator). */
    int64_t prompt_tokens = 0;
    int64_t inserted_tokens = 0; ///< new blocks created, in tokens
    int64_t evicted_tokens = 0;  ///< LRU evictions, in tokens
    int64_t resident_bytes = 0;  ///< cached bytes at the last round
    int64_t resident_tokens = 0; ///< cached tokens at the last round
    /** Prompt tokens the tree's walks read by content
     *  (kv::PrefixTree::comparedTokens()). Host work, not a simulated
     *  quantity: it depends on how prompts are stored. */
    int64_t compared_tokens = 0;

    /** Fraction of looked-up prompt tokens served from cache. */
    double hitRate() const
    {
        return prompt_tokens > 0
                   ? static_cast<double>(hit_tokens) /
                         static_cast<double>(prompt_tokens)
                   : 0.0;
    }

    /** Fleet aggregation: counters sum (resident across replicas). */
    void merge(const PrefixCacheStats &other);
};

/** Configuration of one replica (Server reuses this shape). */
struct ReplicaConfig
{
    core::TimingConfig timing; ///< system, geometry, hardware, budget
    QueuePolicy queue_policy = QueuePolicy::Fifo;
    /** Hard cap on in-flight requests (scheduler table size); memory
     *  admission usually binds first. */
    int64_t max_batch = 64;
    /** Replica id stamped on metrics records (cluster index). */
    int64_t id = 0;
    /** Display name; defaulted to "replica<id>(<hw>/<system>)". */
    std::string name;
    /** Shared-prefix KV cache; disabled (budget 0) by default. */
    PrefixCacheConfig prefix_cache;
    /** Admission discipline: Reserve (pessimistic final-length
     *  booking, the bit-pinned default) or Optimistic (current
     *  footprint + KV-pressure preemption). */
    SchedulerMode scheduler_mode = SchedulerMode::Reserve;
    /** Who is evicted first under Optimistic KV pressure. */
    VictimPolicy victim_policy = VictimPolicy::LastAdmitted;
    /** Observability hooks (trace / counters / sampler); all-null by
     *  default, which is bit-for-bit the unobserved engine. */
    obs::Observability obs;
};

/** Outcome of serving one trace (single replica or aggregated fleet). */
struct ServeResult
{
    ServingMetrics metrics;    ///< completed requests
    std::vector<Request> rejected; ///< individually infeasible requests
    double makespan_seconds = 0.0;
    int64_t iterations = 0;    ///< decode iterations executed
    /** ReplicaEngine::step() calls: host work, not a simulated
     *  quantity — the fast path runs many rounds per step. */
    int64_t steps = 0;
    /** Optimistic decode-fit queries (Scheduler::decodeFitRounds
     *  calls), each an O(batch) pass; host work. One runs wherever no
     *  proof is live — every round in the reference loop, only to
     *  refresh a spent proof on the fast path — plus one more after
     *  each preemption. */
    int64_t fit_queries = 0;
    int64_t peak_in_flight = 0;
    PrefixCacheStats prefix;   ///< all-zero when the cache is disabled
    PreemptionStats preempt;   ///< all-zero in Reserve mode

    int64_t completed() const { return metrics.count(); }
    ServingSummary summary() const
    {
        return metrics.summarize(makespan_seconds);
    }
};

/**
 * Sound lower bound on a clock that starts at `now` and then adds
 * `rounds` durations, each at least `floor_s`, one rounded addition at
 * a time. The plain now + rounds * floor_s is one multiply-add and can
 * exceed that clock by a few ulps: every addition may round down by up
 * to half an ulp (relative u = DBL_EPSILON / 2), so the clock is at
 * least (now + rounds * floor_s)(1 - rounds * u), while the computed
 * product and sum each round up by at most u. Shrinking the sum by
 * (rounds + 2) * DBL_EPSILON of itself covers all of that with slack
 * to absorb the margin's own rounding. Returns `now` when `rounds` or
 * `floor_s` is not positive.
 */
inline double
roundFloorLowerBound(double now, int64_t rounds, double floor_s)
{
    if (rounds <= 0 || !(floor_s > 0.0))
        return now;
    const double n = static_cast<double>(rounds);
    const double cap = now + n * floor_s;
    return std::max(
        now, cap - (n + 2.0) * std::numeric_limits<double>::epsilon() * cap);
}

/** One steppable continuous-batching replica. */
class ReplicaEngine
{
  public:
    /** Called with the replica clock whenever arrivals up to that
     *  instant must be made deliverable (round head and after each
     *  prefill). */
    using IngestFn = std::function<void(double)>;

    /**
     * @throws std::invalid_argument when cfg.timing.system cannot be
     * continuously batched, max_batch is non-positive (both from the
     * Scheduler) or the prefix-cache budget is negative.
     */
    ReplicaEngine(const core::TimingEngine &engine, ReplicaConfig cfg);

    const ReplicaConfig &config() const { return cfg_; }
    const Scheduler &scheduler() const { return scheduler_; }

    /** True when this replica admits optimistically (and preempts). */
    bool optimistic() const { return scheduler_.optimistic(); }

    // ---- State inspection (router policies read these) --------------

    /** Local clock, simulated seconds from trace start. */
    double now() const { return now_; }

    int64_t inFlight() const
    {
        return static_cast<int64_t>(active_.size());
    }

    /** Requests delivered but not yet admitted (queued + pending). */
    int64_t waiting() const
    {
        return scheduler_.queueSize() +
               static_cast<int64_t>(pending_.size()) - pending_next_;
    }

    /** All requests this replica still owes work to. */
    int64_t outstanding() const { return inFlight() + waiting(); }

    /** Sum of final-length KV reservations (tokens) over every
     *  outstanding request — the booked load signal Reserve-mode
     *  routing reads. */
    int64_t reservedKvTokens() const;

    /** Sum of *current* KV contexts (tokens) over every outstanding
     *  request — in-flight requests at their live kvLen(), waiting
     *  ones at the restore length they would prefill today. The live
     *  occupancy signal Optimistic-mode routing reads. */
    int64_t liveKvTokens() const;

    /** Bytes of KV the replica can hold in HBM next to the weights
     *  (>= 1; the least-KV router's normalizer, so heterogeneous
     *  replicas compare by load *fraction*). */
    int64_t kvCapacityBytes() const;

    /** reservedKvTokens() priced in bytes / kvCapacityBytes(). */
    double kvLoadFraction(int64_t extra_final_len_tokens = 0) const;

    /**
     * Mode-aware routing load: the fraction of kvCapacityBytes() this
     * replica would hold if `r` were added. Reserve replicas price
     * booked reservations (bit-identical to
     * kvLoadFraction(r.finalLen())); Optimistic replicas price live
     * occupancy — what actually sits in HBM now — because booked
     * final lengths systematically overstate a preemptive replica's
     * pressure.
     */
    double routingLoadFraction(const Request &r) const;

    /** True when this replica keeps a prefix cache (configured budget
     *  > 0). Stays true through transient live-KV pressure that
     *  clamps the tree's working budget to 0 — the cache revives when
     *  headroom returns. */
    bool prefixCacheEnabled() const
    {
        return configured_prefix_budget_ > 0;
    }

    /**
     * Prompt tokens of `r` this replica could serve from its prefix
     * cache right now (capped at prompt_len - 1 — prefill always
     * computes at least the last prompt token). 0 when the cache is
     * disabled or `r` carries no prompt tokens. Read-only; the
     * prefix-affinity router scores replicas with it.
     */
    int64_t prefixHitTokens(const Request &r) const;

    /** Live prefix-cache counters (also folded into result().prefix). */
    const PrefixCacheStats &prefixStats() const { return result_.prefix; }

    // ---- Driving -----------------------------------------------------

    /** Hand over a routed request; it waits in the pending list until
     *  the replica clock reaches its arrival time. Deliveries must be
     *  in non-decreasing arrival order per replica.
     *  @throws std::invalid_argument when the arrival is not finite or
     *  precedes the previous delivery's, or when prompt_tokens is
     *  non-empty but its size disagrees with prompt_len. */
    void deliver(Request r);

    /**
     * Simulated time of this replica's next state change: now() when
     * admissible or in-flight work exists, the earliest pending
     * arrival when it is idle but booked, +infinity when fully idle.
     */
    double nextEventSeconds() const;

    /** True when nextEventSeconds() is +infinity. */
    bool idle() const;

    /**
     * True when the next step() round would be *pure decode*: requests
     * are in flight, nothing is admissible (the queue is empty, or
     * backlogged behind a full batch) and no pending delivery has
     * arrived yet. Such a round touches only this engine's own state —
     * no ingest callback can route, no admission can prefill — which
     * is what makes it safe to run ahead of the global event order
     * (skip-ahead) or in one era with other replicas' pure-decode
     * rounds (Cluster's era stepping).
     */
    bool pureDecodeReady() const
    {
        return !active_.empty() && !admissionPossible() &&
               (pending_next_ >= static_cast<int64_t>(pending_.size()) ||
                pending_[pending_next_].arrival_seconds > now_);
    }

    /**
     * Earliest future instant at which this replica could possibly
     * run an *admission* round. Admission rounds are the fleet's only
     * cross-replica interaction outside the driver's own boundaries:
     * their prefills invoke the ingest callback, which may route
     * arrivals against every replica's current state. Skip-ahead on
     * any OTHER lane must therefore never advance past this instant —
     * it is the fleet-internal component of the bulk-stepping horizon.
     * The bound widens skip-ahead windows only; it never feeds
     * simulated arithmetic.
     *
     *  - queued work with a free batch slot: now() — the very next
     *    round admits;
     *  - queued work behind a full batch (a backlog): nothing can be
     *    admitted before a retirement frees a slot (or, Optimistic, a
     *    preemption does) — batchChangeBoundSeconds(). A pending
     *    delivery does not clip it: without a slot it only joins the
     *    queue.
     *  - Optimistic with a live batch and an empty queue: a retirement
     *    frees a slot nobody waits for, so only a preemption (whose
     *    restore puts an admission one round later) can admit —
     *    preemptionBoundSeconds(), clipped by the pending head's
     *    arrival (the round crossing it becomes an admission round).
     *    now() without a live decode-fit proof.
     *  - pending deliveries only: the head's arrival time (the round
     *    that crosses it turns into an admission round);
     *  - otherwise +infinity — a Reserve replica with nothing waiting
     *    can only decode and retire until the next delivery.
     *
     * New deliveries arrive only at routing instants — the event
     * loop's arrival boundary or another lane's admission prefill,
     * which every lane's horizon already respects — and make the
     * lane's next round an admission round (cap now()) from then on.
     */
    double nextPossibleAdmissionSeconds() const
    {
        if (admissionPossible())
            return now_;
        const bool has_pending =
            pending_next_ < static_cast<int64_t>(pending_.size());
        const double t_pending =
            has_pending ? std::max(pending_[pending_next_].arrival_seconds,
                                   now_)
                        : std::numeric_limits<double>::infinity();
        if (!scheduler_.queueEmpty())
            return batchChangeBoundSeconds();
        if (optimistic() && !active_.empty())
            return std::min(preemptionBoundSeconds(), t_pending);
        return t_pending;
    }

    /**
     * Run one scheduling round at nextEventSeconds() (the clock jumps
     * there first when the replica is idle-but-booked).
     *
     * Skip-ahead fast path: while `horizon` lies ahead of the local
     * clock, the engine keeps executing follow-on *pure-decode* rounds
     * (preempt-check, decode iteration, retire — the exact per-round
     * arithmetic, in the exact order) inside this one call instead of
     * returning to the event loop after each token. The loop stops the
     * moment a round needs the outside world again — queued work with
     * a free batch slot or an arrived pending delivery makes the next
     * round an admission round, the batch drains idle, or the clock
     * reaches `horizon` — so results are bit-identical to single-round
     * stepping provided the caller bounds `horizon` by the next
     * external boundary it owns (next unrouted arrival, control tick,
     * sampler cadence crossing). The default (-infinity) runs exactly
     * one round.
     *
     * Observability is exact under skip-ahead and takes the same
     * decode path as an unobserved run: one DecodeWindow event per
     * decode window (stamped at its first round, carrying the batch
     * size and the rounds run) and the decode counters bumped by the
     * window's rounds; gauges publish once at exit with last-round
     * values, which is what a boundary reader would have seen anyway.
     *
     * @throws std::logic_error when invoked on a fully idle replica.
     */
    void step(const IngestFn &ingest = nullptr,
              double horizon = -std::numeric_limits<double>::infinity());

    /**
     * Toggle the cached per-lane pricer (core::SystemPricer): on,
     * every decode round and admission prefill is priced by the lane's
     * one pricer (Scheduler::pricer(), which also answers every
     * admission probe), deriving the cost/memory models once per batch
     * size and running bulk decode windows; off (the construction
     * default), each prefill and round is priced on a fresh pricer —
     * the reference loop, with the pre-fast-path cost profile. Either
     * way the simulated durations are bit-identical; drivers set this
     * from SimFastPath::cache_decode_costs.
     */
    void setDecodeCostCache(bool on);

    /** Results accumulated so far; makespan_seconds tracks the clock
     *  at the last completed round. */
    const ServeResult &result() const { return result_; }

    /** Move the accumulated results out (engine is spent afterwards). */
    ServeResult takeResult() { return std::move(result_); }

  private:
    const core::TimingEngine &engine_;
    ReplicaConfig cfg_;
    Scheduler scheduler_;
    /** The reference loop's pricer, replaced by a fresh one before
     *  every prefill and round (see roundPricer()); unused when
     *  cache_costs_. */
    std::unique_ptr<core::SystemPricer> fresh_pricer_;
    bool cache_costs_ = false; ///< setDecodeCostCache()

    double now_ = 0.0;
    std::vector<Request> active_;
    std::vector<Request> pending_; ///< delivered, arrival not reached
    int64_t pending_next_ = 0;     ///< first live index into pending_
    /**
     * Optimistic decode-fit proof: how many future rounds are still
     * proven to fit from the *current* batch state
     * (Scheduler::decodeFitRounds, queried up to the batch's last
     * retirement — one round in the reference loop — and decremented
     * per round run). <= 0 = none live: step() queries before the next
     * round and preempts while the answer is 0. Admission and
     * preemption void it; a retirement does not — the fit test only
     * tightens as the batch size, Σ s and max s grow, so every
     * sub-batch of a fitting batch fits, and the rounds proven for the
     * batch hold for what is left of it. While it is positive step()
     * asks nothing (and skips the window flush a query needs).
     * Reserve-mode engines never read it.
     */
    int64_t opt_fit_rounds_ = -1;
    /** The pricer's bulk decode window is still open from the last
     *  step(): the batch composition has not changed since, so its
     *  incremental reduced integers (attended total, s_max, crossing
     *  bookkeeping) are exactly what a fresh beginWindow() on the
     *  grown lengths would derive — the next window continues it and
     *  skips the O(batch) re-scan. Any admission, preemption,
     *  retirement or per-round-path iteration closes the window. */
    bool win_live_ = false;
    /** Running Σ finalLen() over active_, maintained at every
     *  admission, preemption and retirement: the router reads every
     *  lane's reserved KV on every arrival, and the integer total is
     *  associative, so the cache is exactly the scan it replaces. */
    int64_t active_final_tokens_ = 0;
    /** Retirement bound (min remaining gen tokens across the batch)
     *  carried by a live window; each reconciliation discounts the
     *  rounds just run, so a continued window skips the O(batch)
     *  rescan. Meaningful only while win_live_ is true. */
    int64_t win_k_retire_ = 0;
    /** Rounds a live window has run that are not yet applied to the
     *  Request objects (generated, KV mirror). While a window is
     *  continued across steps no request can retire (the window is
     *  capped below win_k_retire_) and nothing per-request changes
     *  except the uniform +1-per-round growth, so the O(batch) pass
     *  is deferred: `generated` lags every active request by exactly
     *  this count, and the few readers that look at live lengths
     *  between flushes compensate arithmetically (integer-exact).
     *  flushWindow() applies the lag; retirement windows and any
     *  batch mutation flush eagerly. Non-zero only while win_live_
     *  is true. */
    int64_t win_defer_rounds_ = 0;
    /** Decode-iteration kv_lens buffer, reused across rounds so the
     *  hot loop allocates nothing in steady state. */
    std::vector<int64_t> kv_scratch_;
    double last_delivered_arrival_ = 0.0; ///< delivery-order guard
    ServeResult result_;
    kv::PrefixTree prefix_tree_;
    /** Capacity-clamped configured budget — the cache's on/off truth.
     *  The tree's own budget is a *working* value syncPrefixBudget()
     *  squeezes under live-KV pressure and later restores. */
    int64_t configured_prefix_budget_ = 0;
    /** Geometry-derived constants, frozen at construction: KV bytes
     *  one token occupies and the HBM left next to the weights
     *  (clamped to >= 1). Both are pure functions of the immutable
     *  replica config, but re-deriving them walks the LLM parameter
     *  count — and the router asks for the load fraction of every
     *  candidate lane on every arrival. */
    int64_t kv_bytes_per_token_ = 0;
    int64_t kv_capacity_bytes_ = 1;
    /** MemoryModel::modelBytes() of this replica's config — the Eq. 6
     *  weight term syncPrefixBudget() subtracts on every admission.
     *  Constructing the model just to read this walked the whole
     *  parameter count per admission. */
    int64_t model_bytes_ = 0;
    /** Pin held for each in-flight request, keyed by its admission's
     *  unique pin slot (Request::prefix_pin_slot); released at
     *  retirement or preemption. Flat (slot, pin) table: it holds at
     *  most max_batch entries, so a backward linear scan beats a hash
     *  map — and sheds the per-admission node allocation the map paid. */
    std::vector<std::pair<int64_t, kv::PrefixHandle>> prefix_pins_;
    int64_t next_pin_slot_ = 0;

    /** Per-replica counter/gauge slots (resolved once at
     *  construction; meaningful only when counters_ is non-null). */
    struct CounterSlots
    {
        obs::CounterRegistry::Handle enqueued_requests = 0;
        obs::CounterRegistry::Handle admitted_requests = 0;
        obs::CounterRegistry::Handle admitted_prefill_tokens = 0;
        obs::CounterRegistry::Handle prefix_hit_tokens = 0;
        obs::CounterRegistry::Handle preemptions = 0;
        obs::CounterRegistry::Handle preempted_tokens = 0;
        obs::CounterRegistry::Handle restores = 0;
        obs::CounterRegistry::Handle recompute_tokens = 0;
        obs::CounterRegistry::Handle completed_requests = 0;
        obs::CounterRegistry::Handle rejected_requests = 0;
        obs::CounterRegistry::Handle generated_tokens = 0;
        obs::CounterRegistry::Handle decode_iterations = 0;
        obs::CounterRegistry::Handle queue_depth = 0;      ///< gauge
        obs::CounterRegistry::Handle in_flight = 0;        ///< gauge
        obs::CounterRegistry::Handle live_kv_bytes = 0;    ///< gauge
        obs::CounterRegistry::Handle prefix_resident_bytes = 0; ///< gauge
        obs::CounterRegistry::Handle prefix_pinned_bytes = 0;   ///< gauge
    };

    /** Observability (all optional): the event ring, the counter
     *  registry and this replica's resolved slots. */
    obs::Trace *trace_ = nullptr;
    obs::CounterRegistry *counters_ = nullptr;
    CounterSlots slots_;
    /** Last KvClamp working budget emitted, so the trace records
     *  budget *changes*, not every admission's re-clamp. */
    int64_t last_clamp_emitted_ = -1;

    /** The next round head would admit: work is queued and the batch
     *  has a free slot. A backlog behind a full batch cannot admit
     *  before a retirement or preemption frees one, so such a lane
     *  decodes exactly like one with an empty queue. */
    bool admissionPossible() const
    {
        return !scheduler_.queueEmpty() && scheduler_.hasBatchSlot(active_);
    }

    /** Sound lower bound on the instant this replica's batch can next
     *  change (precondition: requests in flight): n rounds of at least
     *  minRoundSeconds() each, where n is the smallest remaining
     *  generation length (discounting win_defer_rounds_, so it is what
     *  an eager reconciliation would read), further capped by the live
     *  decode-fit proof in Optimistic mode. now() in the reference
     *  loop (no cached pricer), or when no floor or fit proof proves
     *  anything. */
    double batchChangeBoundSeconds() const
    {
        if (!cache_costs_)
            return now_;
        const double floor_s = scheduler_.pricer().minRoundSeconds();
        if (!(floor_s > 0.0))
            return now_;
        int64_t n = std::numeric_limits<int64_t>::max();
        if (optimistic()) {
            if (opt_fit_rounds_ <= 0)
                return now_;
            n = opt_fit_rounds_;
        }
        for (const Request &r : active_)
            n = std::min(n, r.gen_len - r.generated - win_defer_rounds_);
        return roundFloorLowerBound(now_, n, floor_s);
    }

    /** Sound lower bound on this Optimistic replica's next preemption:
     *  the live decode-fit proof's opt_fit_rounds_ rounds, each at
     *  least minRoundSeconds(). The proof survives retirements, so the
     *  bound carries no retirement term. now() in the reference loop
     *  or without a live proof. */
    double preemptionBoundSeconds() const
    {
        if (!cache_costs_)
            return now_;
        return roundFloorLowerBound(now_, opt_fit_rounds_,
                                    scheduler_.pricer().minRoundSeconds());
    }

    /** Move pending requests with arrival <= t into the queue. */
    void ingestPending(double t);

    /** The pricer of the next prefill or single decode round: the
     *  lane's own when cache_costs_, else a fresh one. */
    core::SystemPricer &roundPricer();

    /** Refresh this replica's gauges (queue depth, in-flight, live KV
     *  bytes, prefix residency); called at every step() exit so a
     *  mid-run snapshot or sampler row always sees current levels. */
    void publishGauges();

    /** Shrink the tree's budget to min(configured budget, HBM headroom
     *  left by weights + outstanding KV + `extra_reserved_tokens` — the
     *  admission candidate in flight between queue and active_),
     *  pricing the weights through sim::MemoryModel — cached prefixes
     *  yield to live KV. Outstanding KV is booked final lengths in
     *  Reserve mode and live contexts in Optimistic mode (matching
     *  what each discipline actually holds). Pinned blocks plus
     *  `extra_budget_tokens` (the candidate's about-to-be-pinned
     *  prompt blocks) ride on top of the clamp: they are live KV the
     *  reservations already pay for, so one physical copy is never
     *  charged twice. */
    void syncPrefixBudget(int64_t extra_reserved_tokens = 0,
                          int64_t extra_budget_tokens = 0);

    /** Cache consultation at admission: returns the prefill tokens
     *  skipped for `r` and pins its prompt path in the tree — one
     *  combined kv::PrefixTree::matchAndPin() traversal with the
     *  budget re-clamp as its resize callback. */
    int64_t admitThroughPrefixCache(Request &r);

    /** Apply win_defer_rounds_ to every active request (generated and
     *  the KV mirror) and reset the lag to zero. Must run before any
     *  code reads or mutates per-request live state directly:
     *  admission (the resident scan, optimistic current-footprint
     *  pricing), an optimistic decode-fit query (run only without a
     *  live proof), victim selection, and the per-round fallback. The
     *  pricer's window stays open — a flush restores the
     *  eager-reconciliation invariant without closing anything. */
    void flushWindow();

    /** step() must hand control back to the driver: the horizon is
     *  reached, the batch drained, queued work has a free batch slot
     *  to be admitted into, or a pending delivery's arrival is due. A
     *  backlog behind a full batch does not yield: the round that
     *  retires (or preempts) a request frees the slot and yields. */
    bool mustYield(double horizon) const;

    /** Reconcile `grow` decode rounds into active_ in one pass: each
     *  request gains `grow` tokens (unstamped TTFTs get
     *  `first_token_seconds`), finished requests retire at now_, and
     *  kv_scratch_ is compacted alongside. Returns the requests kept. */
    size_t advanceAndRetire(int64_t grow, double first_token_seconds);

    /** Optimistic KV pressure: evict the Scheduler's victim from the
     *  in-flight batch — release its prefix pin, count the preemption
     *  and re-enqueue it for recompute. */
    void preemptVictim();

    /** Release the prefix pin registered under `slot` and drop its
     *  table entry (swap-pop; scan from the back — recent pins release
     *  most often). No-op when the slot is absent. */
    void releasePinSlot(int64_t slot);

    /** Copy the tree's lifetime counters into result_.prefix. */
    void snapshotPrefixStats();
};

} // namespace serving
} // namespace specontext
