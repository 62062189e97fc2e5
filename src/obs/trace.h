/**
 * @file
 * Structured event tracing: a bounded ring buffer of typed, fixed-size
 * events stamped with simulated time, request id and replica id — the
 * always-available flight recorder of the serving stack (SESC's
 * EventTrace is the model: cheap enough to leave on, bounded so a
 * million-request run cannot exhaust memory).
 *
 * Every instrumentation site goes through the OBS_EVENT macro, which
 * is a null-pointer check when no trace is attached (the default —
 * the hot loop pays one predicted branch) and compiles to a true
 * no-op, argument expressions unevaluated, when the build defines
 * SPECONTEXT_OBS_ENABLED=0. Tracing only *records*: it never advances
 * simulated time or perturbs scheduling decisions, so results are
 * bit-identical with tracing on, off, or compiled out
 * (tests/test_obs.cc pins this).
 *
 * The ring keeps the most recent `capacity` events; older ones are
 * overwritten and counted in dropped(). snapshot() returns the
 * retained events oldest-first for the exporters
 * (obs::writeChromeTrace renders one Perfetto lane per replica).
 *
 * Capacity is a retention bound, not a reservation: events live in
 * fixed 2048-event chunks (80 KiB, small enough for the allocator to
 * serve from its heap and recycle across runs), and a chunk is
 * allocated only when the first event lands in it. A 2^25-event ring
 * that records 200k events holds 111 chunks, not 1.3 GB of mapping.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace specontext {
namespace obs {

/** What happened. Payload fields `a`/`b` are typed per event below. */
enum class EventType : uint8_t {
    Enqueue,      ///< request entered a replica's waiting queue; a=prompt_len, b=gen_len
    Admit,        ///< joined the in-flight batch; a=prefix-cache hit tokens, b=current context (kvLen)
    PrefillStart, ///< prefill iteration begins; a=tokens to prefill, b=in-flight batch size before the join
    PrefillEnd,   ///< prefill iteration done; a=tokens prefilled, b=in-flight batch size after the join
    DecodeWindow, ///< a window of decode rounds on an unchanged batch (request=-1), stamped at its first round; a=batch size, b=rounds run
    Preempt,      ///< evicted under KV pressure; a=generated tokens at eviction, b=lifetime preemption count
    Restore,      ///< re-admission of a preempted request; a=generated tokens recomputed, b=prefix-cache hit tokens
    Complete,     ///< retired with all tokens generated; a=gen_len, b=lifetime preemption count
    Reject,       ///< infeasible even alone; a=prompt_len, b=gen_len
    RouterPlace,  ///< router placed an arrival (replica=target); a=prompt_len, b=router policy ordinal
    PrefixHit,    ///< admission served tokens from the prefix cache; a=hit tokens, b=prompt_len
    PrefixInsert, ///< new prefix blocks cached; a=tokens inserted, b=resident tokens after
    PrefixEvict,  ///< one burst of LRU blocks evicted (request=-1); a=tokens evicted, b=resident tokens after
    KvClamp,      ///< prefix-cache working budget re-clamped (request=-1); a=new working budget bytes, b=configured budget bytes
    FleetScale,   ///< elastic fleet transition (request=-1, replica=slot); a=serving::ScaleAction ordinal, b=live replicas after
};

/** Stable lowercase name of an event type (trace/export schema). */
const char *eventTypeName(EventType t);

/** One trace record. Fixed-size and trivially copyable by design —
 *  emit() is a couple of stores, and bytes/event is a published
 *  overhead metric (BENCH_obs.json). */
struct TraceEvent
{
    double t_seconds = 0.0; ///< simulated time of the event
    int64_t request = -1;   ///< request id; -1 for component-level events
    int64_t a = 0;          ///< payload (see EventType)
    int64_t b = 0;          ///< payload (see EventType)
    int32_t replica = -1;   ///< replica id; -1 for fleet-level events
    EventType type = EventType::Enqueue;
};

static_assert(sizeof(TraceEvent) <= 40,
              "TraceEvent grew past its 40-byte budget — emit() cost "
              "and ring memory are published overhead metrics");

/** Trace knobs. */
struct TraceConfig
{
    /** Events retained; older ones are overwritten (and counted).
     *  A bound, not a reservation: memory grows in 80 KiB chunks as
     *  events arrive, up to this many events. */
    size_t capacity = 1 << 16;
};

/** Bounded ring buffer of TraceEvents. Not thread-safe (the simulator
 *  is single-threaded). */
class Trace
{
  public:
    /** @throws std::invalid_argument on zero capacity. */
    explicit Trace(TraceConfig cfg = {});

    /** Instrumented components hold a pointer to the trace, so it
     *  stays where it was made. */
    Trace(const Trace &) = delete;
    Trace &operator=(const Trace &) = delete;

    const TraceConfig &config() const { return cfg_; }

    /** Append one event, overwriting the oldest past capacity. */
    void emit(EventType type, double t_seconds, int32_t replica,
              int64_t request, int64_t a = 0, int64_t b = 0)
    {
        TraceEvent e;
        e.t_seconds = t_seconds;
        e.request = request;
        e.a = a;
        e.b = b;
        e.replica = replica;
        e.type = type;
        if (size_ < cfg_.capacity) {
            if ((size_ & kChunkMask) == 0)
                addChunk();
            slot(size_++) = e;
        } else {
            slot(head_) = e;
            if (++head_ == cfg_.capacity)
                head_ = 0;
        }
        ++emitted_;
    }

    /** Events currently retained (<= capacity). */
    size_t size() const { return size_; }

    /** Events emitted over the trace's lifetime. */
    uint64_t emitted() const { return emitted_; }

    /** Events overwritten by ring wrap-around. */
    uint64_t dropped() const { return emitted_ - size_; }

    /** The i-th retained event, oldest first (i < size()), read in
     *  place: analysis walks the ring without copying it. */
    const TraceEvent &at(size_t i) const
    {
        const size_t j = head_ + i;
        const size_t p = j < size_ ? j : j - size_;
        return chunks_[p >> kChunkShift][p & kChunkMask];
    }

    /** Retained events, oldest first (linearizes the ring). */
    std::vector<TraceEvent> snapshot() const;

    /** Drop every retained event and reset the lifetime counters. */
    void clear();

  private:
    static constexpr size_t kChunkShift = 11;
    static constexpr size_t kChunkEvents = size_t{1} << kChunkShift;
    static constexpr size_t kChunkMask = kChunkEvents - 1;

    /** Ring position p (< size_ or < capacity once full). */
    TraceEvent &slot(size_t p)
    {
        return chunks_[p >> kChunkShift][p & kChunkMask];
    }

    /** Allocate the chunk that ring position size_ starts; the last
     *  chunk holds only what is left of the capacity. */
    void addChunk();

    TraceConfig cfg_;
    std::vector<std::unique_ptr<TraceEvent[]>> chunks_;
    size_t size_ = 0; ///< retained events (<= capacity)
    size_t head_ = 0; ///< oldest element once the ring is full
    uint64_t emitted_ = 0;
};

} // namespace obs
} // namespace specontext

/**
 * Instrumentation entry point: OBS_EVENT(trace_ptr, type, t, replica,
 * request[, a[, b]]). With SPECONTEXT_OBS_ENABLED=0 the macro expands
 * to ((void)0) — no argument evaluation, no branch, sizeof-level
 * proof that disabled tracing costs nothing.
 */
#ifndef SPECONTEXT_OBS_ENABLED
#define SPECONTEXT_OBS_ENABLED 1
#endif

#if SPECONTEXT_OBS_ENABLED
#define OBS_EVENT(trace_ptr, ...)                                      \
    do {                                                               \
        if (trace_ptr)                                                 \
            (trace_ptr)->emit(__VA_ARGS__);                            \
    } while (0)
#else
#define OBS_EVENT(trace_ptr, ...) ((void)0)
#endif
