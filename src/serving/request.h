/**
 * @file
 * Request lifecycle type of the continuous-batching server.
 *
 * A Request is one user call in an open-loop arrival trace: it arrives
 * at a wall-clock instant with a prompt and a generation target, waits
 * in the RequestQueue until its replica's Scheduler finds KV headroom,
 * is prefilled, then advances one token per server iteration until it
 * retires. All timestamps are in simulated seconds from trace start;
 * negative means "not reached yet".
 */
#pragma once

#include <cstdint>
#include <vector>

#include "serving/prompt_tokens.h"

namespace specontext {
namespace serving {

/** Lifecycle stage of a served request. */
enum class RequestState {
    Queued,   ///< arrived, waiting for admission
    Decoding, ///< prefilled, advancing one token per iteration
    /** Evicted from the in-flight batch under KV pressure (Optimistic
     *  scheduling); waits in the queue to be re-admitted, recomputing
     *  its generated tokens through prefill. */
    Preempted,
    Finished, ///< all gen_len tokens produced
    Rejected, ///< can never fit (infeasible even alone)
};

const char *requestStateName(RequestState s);

/** One request of an arrival trace. */
struct Request
{
    int64_t id = 0;
    double arrival_seconds = 0.0;
    int64_t prompt_len = 0;
    int64_t gen_len = 0;
    /**
     * Prompt token ids, for prefix-cache matching (kv::PrefixTree) and
     * prefix-affinity routing. Optional: empty means "no sharing
     * information" and the request bypasses the prefix cache. When
     * non-empty, size() must equal prompt_len (Cluster::run checks
     * every request of a trace up front, ReplicaEngine::deliver each
     * delivery). Shared and immutable: copying a Request shares the
     * token block, O(1) whatever the prompt length.
     */
    PromptTokens prompt_tokens;

    RequestState state = RequestState::Queued;
    int64_t generated = 0;            ///< decode tokens produced so far
    /** Prompt tokens served from the replica's prefix cache at
     *  admission (prefill skipped for them); 0 when the cache is
     *  disabled or missed. */
    int64_t cached_prompt_len = 0;
    /** Internal: ReplicaEngine's key for the prefix-cache pin this
     *  admission took (unique per admission, so duplicate request ids
     *  cannot cross-release each other's pins); -1 = no pin. */
    int64_t prefix_pin_slot = -1;
    double admit_seconds = -1.0;      ///< first admission (prefill start)
    /** Latest (re-)admission instant — the LastAdmitted victim
     *  policy's ordering key; equals admit_seconds until a preempted
     *  request is restored. */
    double last_admit_seconds = -1.0;
    double first_token_seconds = -1.0;///< end of first decode iteration
    double finish_seconds = -1.0;     ///< last token produced
    /** Times this request was evicted from the in-flight batch under
     *  KV pressure (Optimistic scheduling); 0 in Reserve mode. */
    int64_t preemptions = 0;
    /** Generated tokens re-prefilled across all restores — the decode
     *  work preemption threw away and prefill recomputed. */
    int64_t recompute_tokens = 0;

    /** Current context length: prompt plus tokens generated so far. */
    int64_t kvLen() const { return prompt_len + generated; }

    /** Context length when generation completes (KV reservation). */
    int64_t finalLen() const { return prompt_len + gen_len; }

    bool done() const { return generated >= gen_len; }
};

/** Sort a trace by arrival time (stable: equal arrivals keep input
 *  order) — the canonical ordering every serving entry point applies
 *  (Server, Cluster, serveWaves, workload::splitTrace). */
void sortByArrival(std::vector<Request> &trace);

} // namespace serving
} // namespace specontext
