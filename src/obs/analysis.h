/**
 * @file
 * Analysis engine over the trace ring: replay the flight recorder
 * into per-request phase timelines with an *exact* accounting
 * identity, then roll them up into "blame" tables that answer the
 * question raw exports cannot — where did p99 TTFT go?
 *
 * A RequestTimeline splits a request's end-to-end latency into six
 * phases (router gap, queue wait, first prefill, preempt stall,
 * restore recompute, decode residual) that sum *bitwise* to its E2E
 * latency: phaseSum() == e2eSeconds() as doubles, not approximately.
 * The decode phase is computed as the exact residual of the other
 * five under a fixed left-to-right fold, so the identity holds by
 * construction; a request whose identity cannot be closed is flagged
 * incomplete, never silently fudged. The same contract holds for the
 * TTFT window (ttft_phases vs ttftSeconds()).
 *
 * Ring wrap-around is handled explicitly: a request whose Enqueue was
 * overwritten can never be mistaken for a complete timeline (all of a
 * request's events follow its Enqueue in emission order, so a
 * retained Enqueue plus the structural checks below exactly detects
 * truncation). Truncated requests land in TraceAnalysis::incomplete
 * with a reason string — never silently dropped, never rendered as if
 * whole.
 *
 * Analysis is strictly read-only over the Trace ring: it never
 * advances simulated time or touches the serving stack, so an
 * analyzed run is bit-identical to an unobserved one
 * (tests/test_analysis.cc pins this).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace specontext {
namespace obs {

class Trace;

/** The six phases of a request's end-to-end latency, in the fixed
 *  fold order of PhaseBreakdown::phaseSum(). */
enum class Phase : uint8_t {
    RouterGap,        ///< router placement -> replica enqueue
    QueueWait,        ///< enqueue -> first admission
    Prefill,          ///< first prefill iteration (incl. prefix reload)
    PreemptStall,     ///< evicted time: each Preempt -> its Restore
    RestoreRecompute, ///< re-prefill of restored context after Restore
    Decode,           ///< exact residual: decode rounds + batch
                      ///< interference (other requests' prefills)
};

constexpr size_t kPhaseCount = 6;

/** Stable lowercase name of a phase (export schema). */
const char *phaseName(Phase p);

/** Per-phase seconds. The accounting identity is defined over the
 *  fixed left-to-right fold of phaseSum() — reordering the sum would
 *  change the bits, so nothing here ever re-associates it. */
struct PhaseBreakdown
{
    double seconds[kPhaseCount] = {};

    double &operator[](Phase p) { return seconds[size_t(p)]; }
    double operator[](Phase p) const { return seconds[size_t(p)]; }

    /** Left-to-right fold in declaration order — the exact expression
     *  the accounting identity is stated over. */
    double phaseSum() const
    {
        double s = seconds[0];
        for (size_t i = 1; i < kPhaseCount; ++i)
            s += seconds[i];
        return s;
    }

    /** Largest phase (first wins ties). */
    Phase dominant() const;
};

/** One request's reconstructed lifecycle. */
struct RequestTimeline
{
    int64_t request = -1;
    int32_t replica = -1; ///< replica that enqueued (and served) it

    /** True when the whole lifecycle was retained and the accounting
     *  identity closed; false timelines carry incomplete_reason and
     *  land in TraceAnalysis::incomplete. */
    bool complete = false;
    std::string incomplete_reason;

    double arrival_seconds = 0.0; ///< RouterPlace (Enqueue if unrouted)
    double enqueue_seconds = 0.0;
    double admit_seconds = -1.0;       ///< first admission
    double first_token_seconds = -1.0; ///< first decode round after
                                       ///< the request's prefill
    double finish_seconds = -1.0;

    int64_t prompt_len = 0;
    int64_t gen_len = 0;
    int64_t preemptions = 0;
    /** Prefix-cache tokens served across first admit + restores. */
    int64_t prefix_hit_tokens = 0;
    /** Prefix-cache tokens of the *first* admission only (the hit
     *  bucket blame tables split on — restores can re-hit the same
     *  blocks, which would double-count the prompt). */
    int64_t first_hit_tokens = 0;

    /** E2E split; phases.phaseSum() == e2eSeconds() bitwise. */
    PhaseBreakdown phases;
    /** TTFT-window split; ttft_phases.phaseSum() == ttftSeconds()
     *  bitwise. Its Decode phase is "decode until first token". */
    PhaseBreakdown ttft_phases;

    double e2eSeconds() const { return finish_seconds - arrival_seconds; }
    double ttftSeconds() const
    {
        return first_token_seconds - arrival_seconds;
    }
};

/** analyzeTrace() result: reconstructed timelines plus the explicit
 *  truncation story. Both lists are in ascending request id: the
 *  replay sorts 16-byte (id, slot) keys and writes each timeline once,
 *  straight into its place, so no timeline is moved or sorted. */
struct TraceAnalysis
{
    /** Fully retained lifecycles, identity closed; ascending request
     *  id. */
    std::vector<RequestTimeline> complete;
    /** Wrapped / partial lifecycles with reasons; ascending request
     *  id. */
    std::vector<RequestTimeline> incomplete;
    /** Requests that were rejected (terminal, no timeline). */
    int64_t rejected = 0;
    /** Events lost to ring wrap-around (Trace::dropped()). */
    uint64_t dropped_events = 0;

    /** True when the ring wrapped: timelines upstream of the retained
     *  window were truncated, and `incomplete` names the casualties. */
    bool truncated() const { return dropped_events > 0; }
};

/**
 * Replay the trace ring into per-request timelines. Pure function of
 * the snapshot: deterministic, no simulator access. Every complete
 * timeline satisfies both accounting identities bitwise. Any request
 * ids work the same way, dense or sparse up to INT64_MAX; memory is
 * under 200 bytes of replay state per request plus the timelines
 * returned, never proportional to the ring's capacity.
 */
TraceAnalysis analyzeTrace(const Trace &trace);

/** Which latency the blame table attributes. */
enum class BlameMetric : uint8_t {
    E2E,  ///< arrival -> finish, over RequestTimeline::phases
    TTFT, ///< arrival -> first token, over ttft_phases
};

const char *blameMetricName(BlameMetric m);

/** One bucket row of a blame table. */
struct BlameRow
{
    /** "all", "preempt=0", "preempt=1", "preempt>=2", "prefix=none",
     *  "prefix=low", "prefix=high". */
    std::string bucket;
    size_t count = 0;
    double p50_seconds = 0.0;
    double p99_seconds = 0.0;
    /** Dominant phase of the nearest-rank request at p50 / p99 — the
     *  literal answer to "which phase dominates p99". */
    Phase dominant_p50 = Phase::Decode;
    Phase dominant_p99 = Phase::Decode;
    /** Mean per-phase share of the metric across the bucket (each
     *  request's breakdown normalized by its metric, then averaged);
     *  sums to ~1 for non-empty buckets. */
    double mean_share[kPhaseCount] = {};
};

/** Percentile attribution over one metric: which phase is to blame,
 *  split by preemption count and prefix-hit bucket. */
struct BlameTable
{
    BlameMetric metric = BlameMetric::E2E;
    /** "all" first, then the non-empty preempt= / prefix= buckets. */
    std::vector<BlameRow> rows;
};

/**
 * Build the blame table for `metric` over complete timelines.
 * Percentiles are nearest-rank (the serving-metrics convention).
 * Prefix-hit buckets split on first_hit_tokens / prompt_len: none
 * (= 0), low (< 0.5), high (>= 0.5).
 */
BlameTable blameTable(const std::vector<RequestTimeline> &timelines,
                      BlameMetric metric);

/** Nearest-rank percentile of `values` (pct in [0, 100]); 0 when
 *  empty. Sorts a copy — analysis-side convenience, not a hot path. */
double percentileSeconds(std::vector<double> values, double pct);

/** Mean per-phase share of `metric` across complete timelines (the
 *  characterization bench's phase-blame signature, kPhaseCount wide);
 *  zeros when empty. */
std::vector<double> phaseShareSignature(
    const std::vector<RequestTimeline> &timelines, BlameMetric metric);

} // namespace obs
} // namespace specontext
