#include "obs/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
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

/**
 * Stable LSD radix sort of `v` by the unsigned key(x), one byte per
 * pass; input already in key order returns after one check. No
 * comparisons, so no mispredicted branches; `tmp` is scratch.
 *
 * Measured on the 20,000 timelines of elastic-observed seed 7 (one
 * pinned Xeon core, 20 interleaved rounds): blameTable's two calls take
 * ~2.9 ms with it and ~6.0 ms with std::sort on the same 24-byte
 * (value, request, index) keys; the already-sorted check saves ~1 ms
 * of them (its request pass reads each key's timeline).
 */
template <class T, class Key>
void
radixSortBy(std::vector<T> &v, std::vector<T> &tmp, Key key)
{
    const size_t n = v.size();
    if (std::is_sorted(v.begin(), v.end(), [&](const T &a, const T &b) {
            return key(a) < key(b);
        }))
        return;
    size_t offsets[8][256] = {};
    for (const T &x : v) {
        const uint64_t k = key(x);
        for (int b = 0; b < 8; ++b)
            ++offsets[b][(k >> (8 * b)) & 0xff];
    }
    tmp.resize(n);
    for (int b = 0; b < 8; ++b) {
        size_t *at = offsets[b];
        size_t sum = 0;
        for (int d = 0; d < 256; ++d) {
            const size_t c = at[d];
            at[d] = sum;
            sum += c;
        }
        for (const T &x : v)
            tmp[at[(key(x) >> (8 * b)) & 0xff]++] = x;
        v.swap(tmp);
    }
}

/** Order-preserving map of int64 onto uint64. */
uint64_t
orderedBits(int64_t x)
{
    return static_cast<uint64_t>(x) ^ (uint64_t{1} << 63);
}

/** Order-preserving map of a (non-NaN) double onto uint64; -0.0 and
 *  +0.0 compare equal, so both map to +0.0's key. */
uint64_t
orderedBits(double x)
{
    uint64_t u = 0;
    const double canonical = x + 0.0; // -0.0 + 0.0 == +0.0
    std::memcpy(&u, &canonical, sizeof u);
    return (u >> 63) ? ~u : u ^ (uint64_t{1} << 63);
}

/** Preempt/restore replay state, kept off the per-request record:
 *  no request of either benchmark workload (seed 7) is preempted, and
 *  with these fields inline (192-byte records) analyzeTrace took
 *  ~0.5 ms (~7%) longer on elastic-observed, slower in 19 of 20
 *  interleaved rounds. */
struct Preemption
{
    int64_t preempt_events = 0;
    int64_t restore_events = 0;
    double last_preempt_t = -1.0;
    /** Stall/recompute accumulators (plain += in event order, so the
     *  replay is deterministic); the _tt pair only accumulates while
     *  the first token is still pending (TTFT-window share). */
    double preempt_stall = 0.0;
    double restore_recompute = 0.0;
    double preempt_stall_tt = 0.0;
    double restore_recompute_tt = 0.0;
};

/**
 * Per-request replay state: only the fields the replay and the final
 * checks read, in two cache lines. The timeline itself is written
 * once, at its final position, after the replay.
 */
struct alignas(64) Replay
{
    int64_t request = -1;
    int32_t replica = -1; ///< replica that enqueued (and served) it
    /** 1 + index of the request's Preemption record; 0: none yet. */
    uint32_t preemption = 0;
    bool has_enqueue = false;
    bool has_route = false;
    bool has_complete = false;
    bool rejected = false;
    /** First retained event was mid-lifecycle: the ring overwrote the
     *  request's head (retained events are a suffix of emission
     *  order, so a missing Enqueue is proof of truncation). */
    bool orphan = false;
    bool has_pending_prefill = false;
    bool pending_is_restore = false;
    bool first_prefill_done = false;

    double arrival_seconds = 0.0; ///< RouterPlace (Enqueue if unrouted)
    double enqueue_seconds = 0.0;
    double admit_seconds = -1.0;
    double first_token_seconds = -1.0;
    double finish_seconds = -1.0;
    double first_prefill_seconds = 0.0; ///< first prefill end - start
    double pending_prefill_start = -1.0;

    int64_t prompt_len = 0;
    int64_t gen_len = 0;
    int64_t prefix_hit_tokens = 0;
    int64_t first_hit_tokens = 0;
    int64_t complete_preempts = -1;
    int64_t complete_gen = -1;
};

static_assert(sizeof(Replay) == 128, "replay state spans two lines");

/**
 * Every request's replay state, in order of first appearance, and the
 * request id -> slot index over them.
 *
 * States live in fixed 512-state chunks (64 KiB): appending never
 * moves one, and no block outgrows the allocator's recycled heap. On
 * the 20,000 requests of elastic-observed seed 7 a std::vector grown
 * by doubling took ~2x the time and ~2,300 page faults per call (its
 * multi-MB blocks are fresh mappings every call); reserved for the
 * ring's 226,890 events it faulted ~170 pages per call, the chunks
 * ~45. Preemption records sit in a side table.
 *
 * The index is open addressing with linear probing over a power-of-two
 * table of slot + 1 (0: empty), kept at most half full by doubling, so
 * it stays the size of the requests seen (cache-resident), not of the
 * ring. Any id, dense or sparse, takes the same path: a Fibonacci hash
 * spreads it.
 */
class ReplayStates
{
  public:
    ReplayStates() { resizeIndex(10); }

    size_t size() const { return size_; }
    Replay &operator[](size_t s) { return chunks_[s >> kShift][s & kMask]; }
    const Replay &operator[](size_t s) const
    {
        return chunks_[s >> kShift][s & kMask];
    }

    /** Slot of e's request, starting its replay state when the id is
     *  new: an orphan unless `e` can open a lifecycle. */
    uint32_t slotOf(const TraceEvent &e, bool lifecycle_head)
    {
        uint32_t &c = cell(e.request);
        if (c != 0)
            return c - 1;
        if ((size_ & kMask) == 0)
            chunks_.push_back(std::make_unique<Replay[]>(kChunk));
        Replay &r = (*this)[size_++];
        r.request = e.request;
        r.replica = e.replica;
        r.orphan = !lifecycle_head;
        c = static_cast<uint32_t>(size_);
        if (2 * size_ > cells_.size())
            resizeIndex(64 - shift_ + 1);
        return static_cast<uint32_t>(size_ - 1);
    }

    Preemption &recordPreemption(Replay &r)
    {
        if (r.preemption == 0) {
            preemptions_.emplace_back();
            r.preemption = static_cast<uint32_t>(preemptions_.size());
        }
        return preemptions_[r.preemption - 1];
    }

    const Preemption &preemption(const Replay &r) const
    {
        static const Preemption kNone;
        return r.preemption ? preemptions_[r.preemption - 1] : kNone;
    }

  private:
    static constexpr size_t kShift = 9;
    static constexpr size_t kChunk = size_t{1} << kShift;
    static constexpr size_t kMask = kChunk - 1;

    /** The index cell of `id`: 0 when absent. */
    uint32_t &cell(int64_t id)
    {
        size_t h = static_cast<size_t>(
            (static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_);
        while (true) {
            uint32_t &c = cells_[h];
            if (c == 0 || (*this)[c - 1].request == id)
                return c;
            h = (h + 1) & mask_;
        }
    }

    /** Rebuild the index over 2^bits cells. */
    void resizeIndex(int bits)
    {
        shift_ = 64 - bits;
        mask_ = (size_t{1} << bits) - 1;
        cells_.assign(mask_ + 1, 0);
        for (size_t s = 0; s < size_; ++s)
            cell((*this)[s].request) = static_cast<uint32_t>(s + 1);
    }

    std::vector<std::unique_ptr<Replay[]>> chunks_;
    std::vector<Preemption> preemptions_;
    size_t size_ = 0;
    std::vector<uint32_t> cells_;
    size_t mask_ = 0;
    int shift_ = 0;
};

/** Why a replayed request yields no complete timeline (Whole: it
 *  does), in the order the checks run. */
enum Verdict : uint8_t {
    Whole,
    Rejected, ///< terminal, counted, no timeline
    Wrapped,
    InFlight,
    NoAdmission,
    UnmatchedPrefill,
    PreemptPairing,
    PreemptCount,
    GenMismatch,
    NoDecode,
    E2eOpen,
    TtftOpen,
};

const char *
verdictReason(Verdict v)
{
    switch (v) {
      case Wrapped: return "ring wrapped: lifecycle head overwritten";
      case InFlight: return "no complete event (in flight at snapshot)";
      case NoAdmission: return "missing admission/prefill events";
      case UnmatchedPrefill: return "unmatched prefill start";
      case PreemptPairing: return "preempt/restore pairing mismatch";
      case PreemptCount:
        return "preemption count mismatch vs complete event";
      case GenMismatch:
        return "generation length mismatch vs enqueue event";
      case NoDecode: return "no decode window after prefill";
      case E2eOpen: return "e2e accounting identity did not close";
      case TtftOpen: return "ttft accounting identity did not close";
      default: return "";
    }
}

/** The structural checks on a replayed lifecycle. */
Verdict
structuralVerdict(const Replay &r, const Preemption &pre)
{
    if (r.orphan || !r.has_enqueue)
        return Wrapped;
    if (r.rejected)
        return Rejected;
    if (!r.has_complete)
        return InFlight;
    if (r.admit_seconds < 0.0 || !r.first_prefill_done)
        return NoAdmission;
    if (r.has_pending_prefill)
        return UnmatchedPrefill;
    if (pre.preempt_events != pre.restore_events)
        return PreemptPairing;
    if (r.complete_preempts != pre.preempt_events)
        return PreemptCount;
    if (r.complete_gen >= 0 && r.gen_len > 0 && r.complete_gen != r.gen_len)
        return GenMismatch;
    if (r.first_token_seconds < 0.0)
        return NoDecode;
    return Whole;
}

/** Arrival as the timeline reports it once the structure checks out. */
double
arrivalOf(const Replay &r)
{
    return r.has_route ? r.arrival_seconds : r.enqueue_seconds;
}

/**
 * Fill both phase splits of a structurally whole lifecycle and close
 * their identities. On E2eOpen / TtftOpen the splits hold what the
 * failed closure left (the incomplete timeline reports them as is).
 */
Verdict
closePhases(const Replay &r, const Preemption &pre, PhaseBreakdown &p,
            PhaseBreakdown &t)
{
    const double arrival = arrivalOf(r);
    p[Phase::RouterGap] = r.enqueue_seconds - arrival;
    p[Phase::QueueWait] = r.admit_seconds - r.enqueue_seconds;
    p[Phase::Prefill] = r.first_prefill_seconds;
    p[Phase::PreemptStall] = pre.preempt_stall;
    p[Phase::RestoreRecompute] = pre.restore_recompute;
    if (!closeResidual(p, r.finish_seconds - arrival))
        return E2eOpen;

    t[Phase::RouterGap] = p[Phase::RouterGap];
    t[Phase::QueueWait] = p[Phase::QueueWait];
    t[Phase::Prefill] = p[Phase::Prefill];
    t[Phase::PreemptStall] = pre.preempt_stall_tt;
    t[Phase::RestoreRecompute] = pre.restore_recompute_tt;
    if (!closeResidual(t, r.first_token_seconds - arrival))
        return TtftOpen;
    return Whole;
}

/** Write r's timeline fields but the phase splits into `tl`. A
 *  lifecycle that failed a structural check keeps its raw arrival and
 *  no preemption count. */
void
writeTimeline(const Replay &r, const Preemption &pre, Verdict v,
              RequestTimeline &tl)
{
    const bool checked = v == Whole || v == E2eOpen || v == TtftOpen;
    tl.request = r.request;
    tl.replica = r.replica;
    tl.complete = v == Whole;
    if (!tl.complete)
        tl.incomplete_reason = verdictReason(v);
    tl.arrival_seconds = checked ? arrivalOf(r) : r.arrival_seconds;
    tl.enqueue_seconds = r.enqueue_seconds;
    tl.admit_seconds = r.admit_seconds;
    tl.first_token_seconds = r.first_token_seconds;
    tl.finish_seconds = r.finish_seconds;
    tl.prompt_len = r.prompt_len;
    tl.gen_len = r.gen_len;
    tl.preemptions = checked ? pre.preempt_events : 0;
    tl.prefix_hit_tokens = r.prefix_hit_tokens;
    tl.first_hit_tokens = r.first_hit_tokens;
}

/** One replayed request, sorted into ascending-id order. */
struct IdKey
{
    int64_t request;
    uint32_t slot;
    Verdict verdict;
};

} // namespace

TraceAnalysis
analyzeTrace(const Trace &trace)
{
    TraceAnalysis out;
    out.dropped_events = trace.dropped();

    ReplayStates states;
    // Requests whose prefill finished but whose first decode round
    // hasn't landed yet, per replica: the next DecodeWindow event on
    // that replica stamps their first token at the window's first
    // round (exactly where the engine stamps first_token_seconds).
    // Most decode windows find nothing awaiting anywhere; the running
    // total lets them skip the lookup.
    std::unordered_map<int32_t, std::vector<uint32_t>> awaiting;
    size_t awaiting_total = 0;

    // A request's events often arrive back to back (route + enqueue,
    // admit + prefill), so the last lookup is remembered: it catches
    // 60% of lookups on elastic-observed and 63% on prefix-churn
    // (seed 7), and saves ~0.2 ms of each call on either.
    int64_t last_request = -1;
    uint32_t last_slot = 0;
    auto slotFor = [&](const TraceEvent &e, bool lifecycle_head) {
        if (e.request != last_request) {
            last_request = e.request;
            last_slot = states.slotOf(e, lifecycle_head);
        }
        return last_slot;
    };

    for (size_t i = 0; i < trace.size(); ++i) {
        const TraceEvent &e = trace.at(i);
        if (e.request < 0) {
            if (e.type == EventType::DecodeWindow && awaiting_total > 0) {
                const auto it = awaiting.find(e.replica);
                if (it == awaiting.end())
                    continue;
                for (const uint32_t s : it->second) {
                    Replay &r = states[s];
                    if (r.first_token_seconds < 0.0)
                        r.first_token_seconds = e.t_seconds;
                }
                awaiting_total -= it->second.size();
                it->second.clear();
            }
            continue; // prefix/kv/fleet events carry no request
        }
        switch (e.type) {
          case EventType::RouterPlace: {
            Replay &r = states[slotFor(e, true)];
            r.has_route = true;
            r.arrival_seconds = e.t_seconds;
            r.replica = e.replica;
            if (r.prompt_len == 0)
                r.prompt_len = e.a;
            break;
          }
          case EventType::Enqueue: {
            Replay &r = states[slotFor(e, true)];
            r.has_enqueue = true;
            r.enqueue_seconds = e.t_seconds;
            r.replica = e.replica;
            r.prompt_len = e.a;
            r.gen_len = e.b;
            break;
          }
          case EventType::Reject: {
            states[slotFor(e, false)].rejected = true;
            break;
          }
          case EventType::Admit: {
            Replay &r = states[slotFor(e, false)];
            if (r.admit_seconds < 0.0) {
                r.admit_seconds = e.t_seconds;
                r.first_hit_tokens = e.a;
            }
            r.prefix_hit_tokens += e.a;
            r.pending_is_restore = false;
            break;
          }
          case EventType::Restore: {
            Replay &r = states[slotFor(e, false)];
            Preemption &pre = states.recordPreemption(r);
            ++pre.restore_events;
            if (pre.last_preempt_t >= 0.0) {
                const double stall = e.t_seconds - pre.last_preempt_t;
                pre.preempt_stall += stall;
                if (r.first_token_seconds < 0.0)
                    pre.preempt_stall_tt += stall;
                pre.last_preempt_t = -1.0;
            }
            r.prefix_hit_tokens += e.b;
            r.pending_is_restore = true;
            break;
          }
          case EventType::PrefillStart: {
            Replay &r = states[slotFor(e, false)];
            r.pending_prefill_start = e.t_seconds;
            r.has_pending_prefill = true;
            break;
          }
          case EventType::PrefillEnd: {
            const uint32_t s = slotFor(e, false);
            Replay &r = states[s];
            if (r.has_pending_prefill) {
                r.has_pending_prefill = false;
                if (r.pending_is_restore) {
                    const double rc =
                        e.t_seconds - r.pending_prefill_start;
                    Preemption &pre = states.recordPreemption(r);
                    pre.restore_recompute += rc;
                    if (r.first_token_seconds < 0.0)
                        pre.restore_recompute_tt += rc;
                } else if (!r.first_prefill_done) {
                    r.first_prefill_done = true;
                    r.first_prefill_seconds =
                        e.t_seconds - r.pending_prefill_start;
                }
            }
            if (r.first_token_seconds < 0.0) {
                awaiting[e.replica].push_back(s);
                ++awaiting_total;
            }
            break;
          }
          case EventType::Preempt: {
            const uint32_t s = slotFor(e, false);
            Preemption &pre = states.recordPreemption(states[s]);
            ++pre.preempt_events;
            pre.last_preempt_t = e.t_seconds;
            auto it = awaiting.find(e.replica);
            if (it != awaiting.end()) {
                auto &v = it->second;
                const auto kept = std::remove(v.begin(), v.end(), s);
                awaiting_total -= static_cast<size_t>(v.end() - kept);
                v.erase(kept, v.end());
            }
            break;
          }
          case EventType::Complete: {
            Replay &r = states[slotFor(e, false)];
            r.has_complete = true;
            r.finish_seconds = e.t_seconds;
            r.complete_gen = e.a;
            r.complete_preempts = e.b;
            break;
          }
          default: break; // prefix/kv events are replica-level detail
        }
    }

    // Ascending-id order from 16-byte keys (ids are unique per slot),
    // so no timeline is ever moved: each is written once, straight
    // into its output slot.
    std::vector<IdKey> keys(states.size()), tmp;
    size_t whole = 0, failed = 0;
    for (size_t s = 0; s < states.size(); ++s) {
        const Verdict v =
            structuralVerdict(states[s], states.preemption(states[s]));
        keys[s] = {states[s].request, static_cast<uint32_t>(s), v};
        whole += v == Whole;
        failed += v != Whole && v != Rejected;
    }
    radixSortBy(keys, tmp,
                [](const IdKey &k) { return orderedBits(k.request); });

    // Completes first (reserved for every structurally whole one; an
    // identity that does not close turns the lifecycle incomplete),
    // then incompletes, reserved exactly.
    out.complete.reserve(whole);
    for (IdKey &k : keys) {
        if (k.verdict == Rejected) {
            ++out.rejected;
        } else if (k.verdict == Whole) {
            const Replay &r = states[k.slot];
            const Preemption &pre = states.preemption(r);
            PhaseBreakdown p, t;
            k.verdict = closePhases(r, pre, p, t);
            if (k.verdict == Whole) {
                RequestTimeline &tl = out.complete.emplace_back();
                writeTimeline(r, pre, Whole, tl);
                tl.phases = p;
                tl.ttft_phases = t;
            } else {
                ++failed;
            }
        }
    }
    out.incomplete.reserve(failed);
    for (const IdKey &k : keys) {
        if (k.verdict == Whole || k.verdict == Rejected)
            continue;
        const Replay &r = states[k.slot];
        const Preemption &pre = states.preemption(r);
        RequestTimeline &tl = out.incomplete.emplace_back();
        writeTimeline(r, pre, k.verdict, tl);
        if (k.verdict == E2eOpen || k.verdict == TtftOpen)
            closePhases(r, pre, tl.phases, tl.ttft_phases); // rare
    }
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
    // One sort of compact keys by (metric, request id, index) — a
    // strict total order, so each bucket's members come out in exactly
    // the order a per-bucket sort would give, and the share sums below
    // add in that order. Each timeline's share quotients are computed
    // once, in timeline order; the buckets add those same doubles, so
    // the sums are bitwise what dividing per bucket would give.
    struct Key
    {
        double value;
        uint32_t index;    ///< position in `timelines`
        int8_t buckets[2]; ///< preempt= and prefix= bucket (-1: none)
    };
    const size_t n = timelines.size();
    std::vector<Key> sorted(n);
    std::vector<double> quotients(n * kPhaseCount);
    size_t count[kBlameBucketCount] = {};
    for (size_t j = 0; j < n; ++j) {
        const RequestTimeline &tl = timelines[j];
        const double value = metricOf(tl, metric);
        Key &e = sorted[j];
        e = {value, static_cast<uint32_t>(j),
             {static_cast<int8_t>(preemptBucket(tl)),
              static_cast<int8_t>(prefixBucket(tl))}};
        ++count[0];
        for (int8_t b : e.buckets)
            if (b >= 0)
                ++count[b];
        if (value > 0.0) {
            const PhaseBreakdown &p = breakdownOf(tl, metric);
            double *q = &quotients[j * kPhaseCount];
            for (size_t i = 0; i < kPhaseCount; ++i)
                q[i] = p.seconds[i] / value;
        }
    }
    // Keys start in index order; a stable pass by request id (free
    // when the timelines come in ascending id, as analyzeTrace's do)
    // then one by value give (value, request id, index).
    std::vector<Key> tmp;
    radixSortBy(sorted, tmp, [&](const Key &k) {
        return orderedBits(timelines[k.index].request);
    });
    radixSortBy(sorted, tmp,
                [](const Key &k) { return orderedBits(k.value); });

    BlameRow rows[kBlameBucketCount];
    size_t rank50[kBlameBucketCount], rank99[kBlameBucketCount];
    size_t seen[kBlameBucketCount] = {};
    for (size_t b = 0; b < kBlameBucketCount; ++b) {
        rows[b].bucket = kBlameBuckets[b];
        rows[b].count = count[b];
        rank50[b] = count[b] ? nearestRank(50.0, count[b]) : 0;
        rank99[b] = count[b] ? nearestRank(99.0, count[b]) : 0;
    }
    for (const Key &e : sorted) {
        const double *q = &quotients[e.index * size_t{kPhaseCount}];
        const int8_t member_of[3] = {0, e.buckets[0], e.buckets[1]};
        for (int8_t b : member_of) {
            if (b < 0)
                continue;
            BlameRow &row = rows[b];
            const size_t k = ++seen[b];
            if (k == rank50[b]) {
                row.p50_seconds = e.value;
                row.dominant_p50 =
                    breakdownOf(timelines[e.index], metric).dominant();
            }
            if (k == rank99[b]) {
                row.p99_seconds = e.value;
                row.dominant_p99 =
                    breakdownOf(timelines[e.index], metric).dominant();
            }
            if (!(e.value > 0.0))
                continue;
            for (size_t i = 0; i < kPhaseCount; ++i)
                row.mean_share[i] += q[i];
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
