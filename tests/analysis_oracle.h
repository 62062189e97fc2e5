/**
 * @file
 * Reference implementations the analysis engine is checked against:
 * analyzeTrace() as a per-request builder map whose timelines are
 * moved into growing vectors and sorted by id, and classifyRegimes()
 * summing each metric's columns of both rows of every window. Slow and
 * plain on purpose; tests/test_analysis.cc compares the production
 * code with them field by field, bitwise.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/analysis.h"
#include "obs/counters.h"
#include "obs/regime.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace specontext {
namespace oracle {

using obs::BlameMetric;
using obs::EventType;
using obs::Phase;
using obs::PhaseBreakdown;
using obs::RegimeConfig;
using obs::RegimeTimeline;
using obs::RegimeWindow;
using obs::RequestTimeline;
using obs::SamplePoint;
using obs::TimeseriesSampler;
using obs::Trace;
using obs::TraceAnalysis;
using obs::TraceEvent;

namespace detail {

/**
 * Solve fl(pre-fold + decode) == total for the Decode slot alone: two
 * Newton-style corrections land within one ulp of the fixed point (but
 * can 2-cycle when adjacent residuals straddle `total`), then a tail
 * walks representable values one ulp at a time. phaseSum() is monotone
 * in the residual, so once the error changes sign without reaching
 * zero no exact residual exists for this prefix fold.
 */
inline bool
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
inline bool
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

inline void
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

} // namespace detail

/** analyzeTrace as it was before the single-write rewrite. */
inline TraceAnalysis
analyzeTrace(const Trace &trace)
{
    using namespace detail;
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

namespace detail {

/** Column indices of one logical metric: every `replica<N>.<suffix>`
 *  slot (summed at read time). */
inline std::vector<size_t>
replicaColumns(const std::vector<std::string> &names,
               const char *suffix)
{
    std::vector<size_t> cols;
    for (size_t i = 0; i < names.size(); ++i) {
        const std::string &n = names[i];
        if (n.rfind("replica", 0) != 0)
            continue;
        const size_t dot = n.find('.');
        if (dot == std::string::npos)
            continue;
        if (n.compare(dot + 1, std::string::npos, suffix) == 0)
            cols.push_back(i);
    }
    return cols;
}

inline int64_t
cellOf(const SamplePoint &row, size_t col)
{
    return col < row.values.size() ? row.values[col] : 0;
}

inline int64_t
sumOf(const SamplePoint &row, const std::vector<size_t> &cols)
{
    int64_t s = 0;
    for (const size_t c : cols)
        s += cellOf(row, c);
    return s;
}

} // namespace detail

/** classifyRegimes as it was before the one-pass row sums: each
 *  metric summed per row, every row summed twice. */
inline RegimeTimeline
classifyRegimes(const TimeseriesSampler &sampler,
                const RegimeConfig &cfg = {})
{
    using namespace detail;
    RegimeTimeline out;
    const std::vector<SamplePoint> &rows = sampler.samples();
    if (rows.size() < 2)
        return out;

    const std::vector<std::string> &names =
        sampler.registry().names();
    const std::vector<size_t> c_preempt =
        replicaColumns(names, "preemptions");
    const std::vector<size_t> c_prefill =
        replicaColumns(names, "admitted_prefill_tokens");
    const std::vector<size_t> c_generated =
        replicaColumns(names, "generated_tokens");
    const std::vector<size_t> c_hits =
        replicaColumns(names, "prefix_hit_tokens");
    const std::vector<size_t> c_queue =
        replicaColumns(names, "queue_depth");
    const std::vector<size_t> c_inflight =
        replicaColumns(names, "in_flight");
    std::vector<size_t> c_warming;
    for (size_t i = 0; i < names.size(); ++i)
        if (names[i] == "cluster.warming_replicas")
            c_warming.push_back(i);

    out.windows.reserve(rows.size() - 1);
    for (size_t i = 0; i + 1 < rows.size(); ++i) {
        const SamplePoint &lo = rows[i];
        const SamplePoint &hi = rows[i + 1];
        RegimeWindow w;
        w.t_start_seconds = lo.t_seconds;
        w.t_end_seconds = hi.t_seconds;
        w.signals.preemptions = sumOf(hi, c_preempt) - sumOf(lo, c_preempt);
        w.signals.prefill_tokens =
            sumOf(hi, c_prefill) - sumOf(lo, c_prefill);
        w.signals.generated_tokens =
            sumOf(hi, c_generated) - sumOf(lo, c_generated);
        w.signals.prefix_hit_tokens =
            sumOf(hi, c_hits) - sumOf(lo, c_hits);
        w.signals.queue_depth = sumOf(hi, c_queue);
        w.signals.in_flight = sumOf(hi, c_inflight);
        w.signals.warming_replicas = sumOf(hi, c_warming);
        w.regime = obs::classifyWindow(w.signals, cfg);
        const double span = w.t_end_seconds - w.t_start_seconds;
        out.occupancy[size_t(w.regime)] += span;
        out.total_seconds += span;
        out.windows.push_back(w);
    }
    if (out.total_seconds > 0.0)
        for (size_t i = 0; i < obs::kRegimeCount; ++i)
            out.occupancy[i] /= out.total_seconds;
    return out;
}


} // namespace oracle
} // namespace specontext
