#include "serving/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace specontext {
namespace serving {

void
ServingMetrics::record(const Request &r, int64_t replica)
{
    if (r.state != RequestState::Finished)
        throw std::invalid_argument(
            "ServingMetrics: recording an unfinished request");
    RequestRecord rec;
    rec.id = r.id;
    rec.replica = replica;
    rec.prompt_len = r.prompt_len;
    rec.gen_len = r.gen_len;
    rec.arrival_seconds = r.arrival_seconds;
    rec.admit_seconds = r.admit_seconds;
    rec.first_token_seconds = r.first_token_seconds;
    rec.finish_seconds = r.finish_seconds;
    rec.preemptions = r.preemptions;
    rec.recompute_tokens = r.recompute_tokens;
    records_.push_back(rec);
    series_cache_.clear();
}

void
ServingMetrics::merge(const ServingMetrics &other)
{
    records_.insert(records_.end(), other.records_.begin(),
                    other.records_.end());
    // Invalidate every scope's memoized sorted series: the fleet key
    // AND any per-replica keys — merging into a non-empty collector
    // must never leave a summarize() reading pre-merge percentiles.
    series_cache_.clear();
}

std::vector<int64_t>
ServingMetrics::replicaIds() const
{
    std::vector<int64_t> ids;
    for (const RequestRecord &r : records_)
        ids.push_back(r.replica);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
}

double
ServingMetrics::percentileSorted(const std::vector<double> &sorted,
                                 double p)
{
    // Range-check p before the empty-series sentinel so a bad
    // percentile never succeeds silently just because the series was
    // empty.
    if (p < 0.0 || p > 100.0 || std::isnan(p))
        throw std::invalid_argument("percentile: p outside [0, 100]");
    if (sorted.empty())
        return 0.0; // defined sentinel: empty series -> 0.0
    // Nearest-rank: smallest value with cumulative frequency >= p%.
    const auto n = static_cast<int64_t>(sorted.size());
    int64_t rank = static_cast<int64_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::clamp<int64_t>(rank, 1, n);
    return sorted[rank - 1];
}

double
ServingMetrics::percentile(std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    return percentileSorted(values, p);
}

ServingSummary
ServingMetrics::summarizeScoped(bool filter, int64_t replica,
                                double makespan_seconds) const
{
    const std::vector<RequestRecord> &records = records_;
    ServingSummary s;
    s.makespan_seconds = makespan_seconds;

    // Means accumulate in record order (before sorting) so aggregation
    // stays bit-for-bit independent of how the percentile series are
    // laid out.
    std::vector<double> ttft, e2e;
    double tpot_sum = 0.0, queue_sum = 0.0;
    // TTFT sums/counts grouped by per-request preemption count — the
    // inflation series (only materialized when preemption fired).
    std::vector<double> ttft_by_preempt_sum;
    std::vector<int64_t> ttft_by_preempt_n;
    for (const RequestRecord &r : records) {
        if (filter && r.replica != replica)
            continue;
        ttft.push_back(r.ttft());
        e2e.push_back(r.e2e());
        tpot_sum += r.tpot();
        queue_sum += r.queueDelay();
        s.total_generated_tokens += r.gen_len;
        ++s.completed;
        if (r.preemptions > 0) {
            ++s.preempted_completed;
            s.preemptions_total += r.preemptions;
        }
        s.recompute_tokens += r.recompute_tokens;
        const auto bucket = static_cast<size_t>(r.preemptions);
        if (ttft_by_preempt_sum.size() <= bucket) {
            ttft_by_preempt_sum.resize(bucket + 1, 0.0);
            ttft_by_preempt_n.resize(bucket + 1, 0);
        }
        ttft_by_preempt_sum[bucket] += r.ttft();
        ++ttft_by_preempt_n[bucket];
    }
    if (s.completed == 0)
        return s;
    if (s.preempted_completed > 0) {
        s.ttft_mean_by_preemptions.resize(ttft_by_preempt_sum.size(),
                                          0.0);
        for (size_t k = 0; k < ttft_by_preempt_sum.size(); ++k) {
            if (ttft_by_preempt_n[k] > 0)
                s.ttft_mean_by_preemptions[k] =
                    ttft_by_preempt_sum[k] /
                    static_cast<double>(ttft_by_preempt_n[k]);
        }
    }

    const double n = static_cast<double>(s.completed);
    auto mean = [&](const std::vector<double> &v) {
        double acc = 0.0;
        for (double x : v)
            acc += x;
        return acc / n;
    };
    s.ttft_mean = mean(ttft);
    s.e2e_mean = mean(e2e);

    // Sort each series once per scope *per records generation*: the
    // sorted vectors are memoized until the next record()/merge(), so
    // a caller polling summarize() mid-run pays the O(n log n) only on
    // the first read after new completions.
    const int64_t key =
        filter ? replica : std::numeric_limits<int64_t>::min();
    auto memo = series_cache_.find(key);
    if (memo == series_cache_.end()) {
        std::sort(ttft.begin(), ttft.end());
        std::sort(e2e.begin(), e2e.end());
        SortedSeries ss;
        ss.ttft = std::move(ttft);
        ss.e2e = std::move(e2e);
        memo = series_cache_.emplace(key, std::move(ss)).first;
    }
    const SortedSeries &ss = memo->second;
    s.ttft_p50 = ServingMetrics::percentileSorted(ss.ttft, 50.0);
    s.ttft_p95 = ServingMetrics::percentileSorted(ss.ttft, 95.0);
    s.ttft_p99 = ServingMetrics::percentileSorted(ss.ttft, 99.0);
    s.e2e_p50 = ServingMetrics::percentileSorted(ss.e2e, 50.0);
    s.e2e_p95 = ServingMetrics::percentileSorted(ss.e2e, 95.0);
    s.e2e_p99 = ServingMetrics::percentileSorted(ss.e2e, 99.0);
    s.tpot_mean = tpot_sum / n;
    s.queue_delay_mean = queue_sum / n;
    if (makespan_seconds > 0.0)
        s.throughput_tokens_per_s =
            static_cast<double>(s.total_generated_tokens) /
            makespan_seconds;
    return s;
}

ServingSummary
ServingMetrics::summarize(double makespan_seconds) const
{
    return summarizeScoped(false, 0, makespan_seconds);
}

ServingSummary
ServingMetrics::summarizeReplica(int64_t replica,
                                 double makespan_seconds) const
{
    return summarizeScoped(true, replica, makespan_seconds);
}

} // namespace serving
} // namespace specontext
