/**
 * @file
 * Per-request latency metrics of the serving subsystem: TTFT (arrival
 * to first generated token), TPOT (mean inter-token gap after the
 * first), end-to-end latency, queueing delay, tail percentiles and
 * aggregate token throughput — the quantities production serving SLOs
 * are written against, which the paper's closed [in, out] sweeps
 * cannot express.
 *
 * Records carry the id of the replica that served them, so the same
 * collector works at both scopes of the cluster layer: summarize()
 * aggregates fleet-wide, summarizeReplica() breaks the fleet down per
 * replica, and merge() folds per-replica collectors into one.
 */
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "serving/request.h"

namespace specontext {
namespace serving {

/** Latency record of one completed request. */
struct RequestRecord
{
    int64_t id = 0;
    int64_t replica = 0; ///< id of the replica that served the request
    int64_t prompt_len = 0;
    int64_t gen_len = 0;
    double arrival_seconds = 0.0;
    double admit_seconds = 0.0;
    double first_token_seconds = 0.0;
    double finish_seconds = 0.0;
    /** Times this request was evicted from the in-flight batch under
     *  KV pressure (Optimistic scheduling); 0 in Reserve mode. */
    int64_t preemptions = 0;
    /** Generated tokens re-prefilled across its restores. */
    int64_t recompute_tokens = 0;

    /** Time to first token: arrival -> first generated token. */
    double ttft() const { return first_token_seconds - arrival_seconds; }

    /** Mean time per output token after the first. */
    double
    tpot() const
    {
        if (gen_len <= 1)
            return 0.0;
        return (finish_seconds - first_token_seconds) /
               static_cast<double>(gen_len - 1);
    }

    /** End-to-end latency: arrival -> last token. */
    double e2e() const { return finish_seconds - arrival_seconds; }

    /** Time spent waiting for admission. */
    double queueDelay() const { return admit_seconds - arrival_seconds; }
};

/**
 * Aggregate view over all completed requests.
 *
 * Empty-series sentinel: when no record matches (a replica that
 * served zero requests, an empty collector), `completed` is 0 and
 * every mean/percentile/throughput field is exactly 0.0 —
 * well-defined values, never uninitialized or NaN — so callers can
 * gate on `completed == 0` without defensive checks.
 */
struct ServingSummary
{
    int64_t completed = 0;
    int64_t total_generated_tokens = 0;
    double makespan_seconds = 0.0;
    /** total_generated_tokens / makespan. */
    double throughput_tokens_per_s = 0.0;

    double ttft_mean = 0.0, ttft_p50 = 0.0, ttft_p95 = 0.0,
           ttft_p99 = 0.0;
    double tpot_mean = 0.0;
    double e2e_mean = 0.0, e2e_p50 = 0.0, e2e_p95 = 0.0, e2e_p99 = 0.0;
    double queue_delay_mean = 0.0;

    // ---- Preemption (all zero under Reserve scheduling) -------------

    /** Completed requests that were preempted at least once. */
    int64_t preempted_completed = 0;
    /** Preemption events across all completed requests. */
    int64_t preemptions_total = 0;
    /** Generated tokens re-prefilled across all restores. */
    int64_t recompute_tokens = 0;
    /**
     * TTFT-inflation-per-preemption series: entry k is the mean TTFT
     * of completed requests preempted exactly k times (0.0 when no
     * request completed with that count), sized max-observed-count +
     * 1. Empty when no completed request was ever preempted — entry 0
     * alone would just repeat ttft_mean. Note TTFT is first-token
     * time, so only preemptions *before* the first token inflate it;
     * e2e inflation shows up regardless.
     */
    std::vector<double> ttft_mean_by_preemptions;
};

/** Collector of per-request records. */
class ServingMetrics
{
  public:
    /** Record a finished request (state must be Finished) served by
     *  `replica` (0 for the single-server case). */
    void record(const Request &r, int64_t replica = 0);

    int64_t count() const { return static_cast<int64_t>(records_.size()); }
    const std::vector<RequestRecord> &records() const { return records_; }

    /** Append another collector's records (fleet-wide aggregation);
     *  records keep their replica ids. */
    void merge(const ServingMetrics &other);

    /** Sorted distinct replica ids present in the records. */
    std::vector<int64_t> replicaIds() const;

    /**
     * Nearest-rank percentile of `values` (p in [0, 100]); exactly
     * 0.0 on an empty set (the defined empty sentinel — p is still
     * range-checked first). Exposed for tests and benches. Copies and
     * sorts — when reading several quantiles from one series, sort
     * once and use percentileSorted().
     */
    static double percentile(std::vector<double> values, double p);

    /** Nearest-rank percentile of an already ascending-sorted series;
     *  exactly 0.0 on an empty set (p is still range-checked). */
    static double percentileSorted(const std::vector<double> &sorted,
                                   double p);

    /** Aggregate over the records; `makespan` is trace start -> last
     *  retirement, the denominator of aggregate throughput. */
    ServingSummary summarize(double makespan_seconds) const;

    /** Aggregate over the records of one replica only; same shape as
     *  summarize(), so fleet and per-replica views read identically. */
    ServingSummary summarizeReplica(int64_t replica,
                                    double makespan_seconds) const;

  private:
    /** Sorted ttft/e2e series of one summarize scope, memoized so a
     *  polling caller (mid-run dashboards, the obs sampler's consumer)
     *  does not re-pay the O(n log n) sort per call. Sorting the same
     *  multiset is deterministic, so cached and fresh percentiles are
     *  bit-identical. */
    struct SortedSeries
    {
        std::vector<double> ttft;
        std::vector<double> e2e;
    };

    /** Shared body of summarize()/summarizeReplica(): accumulate means
     *  in record order (bit-pinned), then read percentiles from the
     *  memoized sorted series of this scope. */
    ServingSummary summarizeScoped(bool filter, int64_t replica,
                                   double makespan_seconds) const;

    std::vector<RequestRecord> records_;
    /** Per-scope memo (key: replica id, INT64_MIN = fleet-wide);
     *  cleared whenever records_ changes. */
    mutable std::map<int64_t, SortedSeries> series_cache_;
};

} // namespace serving
} // namespace specontext
