#include "obs/analysis.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <unordered_map>

#include "obs/trace.h"

namespace specontext {
namespace obs {

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::RouterGap: return "router_gap";
      case Phase::QueueWait: return "queue_wait";
      case Phase::Prefill: return "prefill";
      case Phase::PreemptStall: return "preempt_stall";
      case Phase::RestoreRecompute: return "restore_recompute";
      case Phase::Decode: return "decode";
    }
    return "unknown";
}

const char *
blameMetricName(BlameMetric m)
{
    return m == BlameMetric::E2E ? "e2e" : "ttft";
}

Phase
PhaseBreakdown::dominant() const
{
    size_t best = 0;
    for (size_t i = 1; i < kPhaseCount; ++i)
        if (seconds[i] > seconds[best])
            best = i;
    return static_cast<Phase>(best);
}

namespace {

/**
 * Solve fl(pre-fold + decode) == total for the Decode slot alone: two
 * Newton-style corrections land within one ulp of the fixed point (but
 * can 2-cycle when adjacent residuals straddle `total`), then a tail
 * walks representable values one ulp at a time. phaseSum() is monotone
 * in the residual, so once the error changes sign without reaching
 * zero no exact residual exists for this prefix fold.
 */
bool
solveDecodeResidual(PhaseBreakdown &p, double total)
{
    p[Phase::Decode] = 0.0;
    p[Phase::Decode] = total - p.phaseSum();
    for (int i = 0; i < 2; ++i) {
        const double err = total - p.phaseSum();
        if (err == 0.0)
            return true;
        p[Phase::Decode] += err;
    }
    double err = total - p.phaseSum();
    if (err == 0.0)
        return true;
    const bool up = err > 0.0;
    const double limit = up ? std::numeric_limits<double>::infinity()
                            : -std::numeric_limits<double>::infinity();
    for (int i = 0; i < 8; ++i) {
        p[Phase::Decode] = std::nextafter(p[Phase::Decode], limit);
        err = total - p.phaseSum();
        if (err == 0.0)
            return true;
        if ((err > 0.0) != up)
            return false; // crossed `total`: no exact residual exists
    }
    return false;
}

/**
 * Close the accounting identity: set the Decode phase so the fixed
 * left-to-right fold equals `total` *bitwise*. The decode residual
 * alone almost always suffices, but round-to-nearest-even can strand
 * the fold: when the two adjacent residuals put the real sum exactly
 * on the tie points around an odd-mantissa `total`, both ties round
 * *away* and no representable decode closes the identity. Largest-
 * remainder style, the fallback then re-rounds one earlier nonzero
 * phase boundary just enough to shift the prefix fold — a phase much
 * smaller than the fold needs several ulps before the fold's own
 * rounding registers the nudge, and the largest phase is always
 * within three binades of the fold, so 32 steps provably move it —
 * then re-derives the residual. The shift stays sub-picosecond,
 * within the phase's own difference-rounding error. A breakdown
 * nothing closes is reported, never fudged.
 */
bool
closeResidual(PhaseBreakdown &p, double total)
{
    if (!std::isfinite(total))
        return false;
    if (solveDecodeResidual(p, total))
        return true;
    for (int i = static_cast<int>(Phase::RestoreRecompute); i >= 0; --i) {
        const double orig = p.seconds[i];
        if (!(orig > 0.0))
            continue; // a zero phase cannot shift the prefix fold
        for (const double limit :
             {std::numeric_limits<double>::infinity(),
              -std::numeric_limits<double>::infinity()}) {
            p.seconds[i] = orig;
            for (int step = 0; step < 32; ++step) {
                p.seconds[i] = std::nextafter(p.seconds[i], limit);
                if (!(p.seconds[i] > 0.0))
                    break; // never walk a phase to zero or below
                if (solveDecodeResidual(p, total))
                    return true;
            }
        }
        p.seconds[i] = orig;
    }
    return false;
}

/** Per-request replay state while walking the ring. */
struct Builder
{
    RequestTimeline tl;
    bool has_enqueue = false;
    bool has_route = false;
    bool has_complete = false;
    bool rejected = false;
    /** First retained event was mid-lifecycle: the ring overwrote the
     *  request's head (retained events are a suffix of emission
     *  order, so a missing Enqueue is proof of truncation). */
    bool orphan = false;

    int64_t preempt_events = 0;
    int64_t restore_events = 0;
    int64_t complete_preempts = -1;
    int64_t complete_gen = -1;

    double last_preempt_t = -1.0;
    double pending_prefill_start = -1.0;
    bool has_pending_prefill = false;
    bool pending_is_restore = false;
    bool first_prefill_done = false;
    double first_prefill_start = -1.0;
    double first_prefill_end = -1.0;

    /** Stall/recompute accumulators (plain += in event order, so the
     *  replay is deterministic); the _tt pair only accumulates while
     *  the first token is still pending (TTFT-window share). */
    double preempt_stall = 0.0;
    double restore_recompute = 0.0;
    double preempt_stall_tt = 0.0;
    double restore_recompute_tt = 0.0;
};

void
finalize(Builder &b, TraceAnalysis &out)
{
    RequestTimeline &tl = b.tl;
    auto fail = [&](const char *why) {
        tl.complete = false;
        tl.incomplete_reason = why;
        out.incomplete.push_back(std::move(tl));
    };

    if (b.orphan || !b.has_enqueue)
        return fail("ring wrapped: lifecycle head overwritten");
    if (b.rejected) {
        ++out.rejected;
        return;
    }
    if (!b.has_complete)
        return fail("no complete event (in flight at snapshot)");
    if (tl.admit_seconds < 0.0 || !b.first_prefill_done)
        return fail("missing admission/prefill events");
    if (b.has_pending_prefill)
        return fail("unmatched prefill start");
    if (b.preempt_events != b.restore_events)
        return fail("preempt/restore pairing mismatch");
    if (b.complete_preempts != b.preempt_events)
        return fail("preemption count mismatch vs complete event");
    if (b.complete_gen >= 0 && tl.gen_len > 0 &&
        b.complete_gen != tl.gen_len)
        return fail("generation length mismatch vs enqueue event");
    if (tl.first_token_seconds < 0.0)
        return fail("no decode window after prefill");

    tl.arrival_seconds =
        b.has_route ? tl.arrival_seconds : tl.enqueue_seconds;
    tl.preemptions = b.preempt_events;

    PhaseBreakdown &p = tl.phases;
    p[Phase::RouterGap] = tl.enqueue_seconds - tl.arrival_seconds;
    p[Phase::QueueWait] = tl.admit_seconds - tl.enqueue_seconds;
    p[Phase::Prefill] = b.first_prefill_end - b.first_prefill_start;
    p[Phase::PreemptStall] = b.preempt_stall;
    p[Phase::RestoreRecompute] = b.restore_recompute;
    if (!closeResidual(p, tl.e2eSeconds()))
        return fail("e2e accounting identity did not close");

    PhaseBreakdown &t = tl.ttft_phases;
    t[Phase::RouterGap] = p[Phase::RouterGap];
    t[Phase::QueueWait] = p[Phase::QueueWait];
    t[Phase::Prefill] = p[Phase::Prefill];
    t[Phase::PreemptStall] = b.preempt_stall_tt;
    t[Phase::RestoreRecompute] = b.restore_recompute_tt;
    if (!closeResidual(t, tl.ttftSeconds()))
        return fail("ttft accounting identity did not close");

    tl.complete = true;
    out.complete.push_back(std::move(tl));
}

} // namespace

TraceAnalysis
analyzeTrace(const Trace &trace)
{
    TraceAnalysis out;
    out.dropped_events = trace.dropped();

    std::unordered_map<int64_t, Builder> builders;
    // Requests whose prefill finished but whose first decode round
    // hasn't landed yet, per replica: the next DecodeWindow event on
    // that replica stamps their first token at the window's first
    // round (exactly where the engine stamps first_token_seconds).
    std::unordered_map<int32_t, std::vector<int64_t>> awaiting;

    auto builderFor = [&](const TraceEvent &e,
                          bool lifecycle_head) -> Builder & {
        auto it = builders.find(e.request);
        if (it == builders.end()) {
            Builder b;
            b.tl.request = e.request;
            b.tl.replica = e.replica;
            b.orphan = !lifecycle_head;
            it = builders.emplace(e.request, std::move(b)).first;
        }
        return it->second;
    };

    for (size_t i = 0; i < trace.size(); ++i) {
        const TraceEvent &e = trace.at(i);
        if (e.request < 0) {
            if (e.type == EventType::DecodeWindow) {
                const auto it = awaiting.find(e.replica);
                if (it == awaiting.end())
                    continue;
                for (const int64_t id : it->second) {
                    Builder &b = builders.find(id)->second;
                    if (b.tl.first_token_seconds < 0.0)
                        b.tl.first_token_seconds = e.t_seconds;
                }
                it->second.clear();
            }
            continue; // prefix/kv/fleet events carry no request
        }
        switch (e.type) {
          case EventType::RouterPlace: {
            Builder &b = builderFor(e, true);
            b.has_route = true;
            b.tl.arrival_seconds = e.t_seconds;
            b.tl.replica = e.replica;
            if (b.tl.prompt_len == 0)
                b.tl.prompt_len = e.a;
            break;
          }
          case EventType::Enqueue: {
            Builder &b = builderFor(e, true);
            b.has_enqueue = true;
            b.tl.enqueue_seconds = e.t_seconds;
            b.tl.replica = e.replica;
            b.tl.prompt_len = e.a;
            b.tl.gen_len = e.b;
            break;
          }
          case EventType::Reject: {
            Builder &b = builderFor(e, false);
            b.rejected = true;
            break;
          }
          case EventType::Admit: {
            Builder &b = builderFor(e, false);
            if (b.tl.admit_seconds < 0.0) {
                b.tl.admit_seconds = e.t_seconds;
                b.tl.first_hit_tokens = e.a;
            }
            b.tl.prefix_hit_tokens += e.a;
            b.pending_is_restore = false;
            break;
          }
          case EventType::Restore: {
            Builder &b = builderFor(e, false);
            ++b.restore_events;
            if (b.last_preempt_t >= 0.0) {
                const double stall = e.t_seconds - b.last_preempt_t;
                b.preempt_stall += stall;
                if (b.tl.first_token_seconds < 0.0)
                    b.preempt_stall_tt += stall;
                b.last_preempt_t = -1.0;
            }
            b.tl.prefix_hit_tokens += e.b;
            b.pending_is_restore = true;
            break;
          }
          case EventType::PrefillStart: {
            Builder &b = builderFor(e, false);
            b.pending_prefill_start = e.t_seconds;
            b.has_pending_prefill = true;
            break;
          }
          case EventType::PrefillEnd: {
            Builder &b = builderFor(e, false);
            if (b.has_pending_prefill) {
                b.has_pending_prefill = false;
                if (b.pending_is_restore) {
                    const double rc =
                        e.t_seconds - b.pending_prefill_start;
                    b.restore_recompute += rc;
                    if (b.tl.first_token_seconds < 0.0)
                        b.restore_recompute_tt += rc;
                } else if (!b.first_prefill_done) {
                    b.first_prefill_done = true;
                    b.first_prefill_start = b.pending_prefill_start;
                    b.first_prefill_end = e.t_seconds;
                }
            }
            if (b.tl.first_token_seconds < 0.0)
                awaiting[e.replica].push_back(e.request);
            break;
          }
          case EventType::Preempt: {
            Builder &b = builderFor(e, false);
            ++b.preempt_events;
            b.last_preempt_t = e.t_seconds;
            auto it = awaiting.find(e.replica);
            if (it != awaiting.end()) {
                auto &v = it->second;
                v.erase(std::remove(v.begin(), v.end(), e.request),
                        v.end());
            }
            break;
          }
          case EventType::Complete: {
            Builder &b = builderFor(e, false);
            b.has_complete = true;
            b.tl.finish_seconds = e.t_seconds;
            b.complete_gen = e.a;
            b.complete_preempts = e.b;
            break;
          }
          default: break; // prefix/kv events are replica-level detail
        }
    }

    for (auto &kv : builders)
        finalize(kv.second, out);

    auto byId = [](const RequestTimeline &a, const RequestTimeline &b) {
        return a.request < b.request;
    };
    std::sort(out.complete.begin(), out.complete.end(), byId);
    std::sort(out.incomplete.begin(), out.incomplete.end(), byId);
    return out;
}

namespace {

/** 1-based nearest-rank index of percentile `pct` among `n` > 0
 *  sorted values. */
size_t
nearestRank(double pct, size_t n)
{
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
    return static_cast<size_t>(
        std::max(1.0, std::min(rank, static_cast<double>(n))));
}

} // namespace

double
percentileSeconds(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[nearestRank(pct, values.size()) - 1];
}

namespace {

double
metricOf(const RequestTimeline &tl, BlameMetric m)
{
    return m == BlameMetric::E2E ? tl.e2eSeconds() : tl.ttftSeconds();
}

const PhaseBreakdown &
breakdownOf(const RequestTimeline &tl, BlameMetric m)
{
    return m == BlameMetric::E2E ? tl.phases : tl.ttft_phases;
}

/** Blame buckets in row order; "all" holds every timeline, and each
 *  timeline lands in at most one preempt= and one prefix= bucket. */
constexpr const char *kBlameBuckets[] = {
    "all",         "preempt=0",  "preempt=1",  "preempt>=2",
    "prefix=none", "prefix=low", "prefix=high",
};
constexpr size_t kBlameBucketCount = std::size(kBlameBuckets);

/** Index of t's preempt= bucket, or -1 for none. */
int
preemptBucket(const RequestTimeline &t)
{
    if (t.preemptions == 0)
        return 1;
    if (t.preemptions == 1)
        return 2;
    return t.preemptions >= 2 ? 3 : -1;
}

/** Index of t's prefix= bucket (split on first_hit_tokens /
 *  prompt_len), or -1 for none. */
int
prefixBucket(const RequestTimeline &t)
{
    if (t.first_hit_tokens == 0)
        return 4;
    if (t.first_hit_tokens < 0)
        return -1;
    return t.first_hit_tokens * 2 < t.prompt_len ? 5 : 6;
}

} // namespace

BlameTable
blameTable(const std::vector<RequestTimeline> &timelines,
           BlameMetric metric)
{
    // One sort of every timeline by (metric, request id) — a strict
    // total order, so each bucket's members come out in exactly the
    // order a per-bucket sort would give, and the share sums below add
    // in that order.
    struct Entry
    {
        double value;
        int64_t request;
        const RequestTimeline *tl;
        int8_t buckets[2]; ///< preempt= and prefix= bucket (-1: none)
    };
    std::vector<Entry> sorted;
    sorted.reserve(timelines.size());
    size_t count[kBlameBucketCount] = {};
    for (const RequestTimeline &tl : timelines) {
        const Entry e{metricOf(tl, metric), tl.request, &tl,
                      {static_cast<int8_t>(preemptBucket(tl)),
                       static_cast<int8_t>(prefixBucket(tl))}};
        ++count[0];
        for (int8_t b : e.buckets)
            if (b >= 0)
                ++count[b];
        sorted.push_back(e);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.value != b.value)
                      return a.value < b.value;
                  return a.request < b.request; // deterministic ties
              });

    BlameRow rows[kBlameBucketCount];
    size_t rank50[kBlameBucketCount], rank99[kBlameBucketCount];
    size_t seen[kBlameBucketCount] = {};
    for (size_t b = 0; b < kBlameBucketCount; ++b) {
        rows[b].bucket = kBlameBuckets[b];
        rows[b].count = count[b];
        rank50[b] = count[b] ? nearestRank(50.0, count[b]) : 0;
        rank99[b] = count[b] ? nearestRank(99.0, count[b]) : 0;
    }
    for (const Entry &e : sorted) {
        const PhaseBreakdown &p = breakdownOf(*e.tl, metric);
        const int8_t member_of[3] = {0, e.buckets[0], e.buckets[1]};
        for (int8_t b : member_of) {
            if (b < 0)
                continue;
            BlameRow &row = rows[b];
            const size_t k = ++seen[b];
            if (k == rank50[b]) {
                row.p50_seconds = e.value;
                row.dominant_p50 = p.dominant();
            }
            if (k == rank99[b]) {
                row.p99_seconds = e.value;
                row.dominant_p99 = p.dominant();
            }
            if (!(e.value > 0.0))
                continue;
            for (size_t i = 0; i < kPhaseCount; ++i)
                row.mean_share[i] += p.seconds[i] / e.value;
        }
    }

    BlameTable table;
    table.metric = metric;
    for (size_t b = 0; b < kBlameBucketCount; ++b) {
        if (b > 0 && count[b] == 0)
            continue; // only "all" is listed when empty
        BlameRow &row = rows[b];
        if (count[b] > 0) {
            for (size_t i = 0; i < kPhaseCount; ++i)
                row.mean_share[i] /= static_cast<double>(count[b]);
        }
        table.rows.push_back(std::move(row));
    }
    return table;
}

std::vector<double>
phaseShareSignature(const std::vector<RequestTimeline> &timelines,
                    BlameMetric metric)
{
    std::vector<double> sig(kPhaseCount, 0.0);
    if (timelines.empty())
        return sig;
    for (const RequestTimeline &tl : timelines) {
        const double total = metricOf(tl, metric);
        if (!(total > 0.0))
            continue;
        const PhaseBreakdown &p = breakdownOf(tl, metric);
        for (size_t i = 0; i < kPhaseCount; ++i)
            sig[i] += p.seconds[i] / total;
    }
    for (size_t i = 0; i < kPhaseCount; ++i)
        sig[i] /= static_cast<double>(timelines.size());
    return sig;
}

} // namespace obs
} // namespace specontext
