/**
 * @file
 * Synthetic open-loop arrival traces for the serving subsystem.
 *
 * The paper evaluates serving on a closed grid of four [in, out]
 * points (Table 3); real traffic is an open-loop arrival process over
 * a mix of lengths. These generators produce deterministic Poisson
 * arrival traces — exponential inter-arrival gaps at a configurable
 * rate — over (a) the paper's four workloads and (b) mixed-length
 * traffic with log-uniform prompt/generation lengths, so scenarios
 * beyond the paper's grid are exercisable from tests and benches.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "serving/request.h"
#include "serving/batch_sweep.h"

namespace specontext {
namespace workload {

/** Shared knobs of the trace generators. */
struct TraceConfig
{
    int64_t num_requests = 32;
    /** Open-loop Poisson arrival rate, requests per second. */
    double arrival_rate_per_s = 0.05;
    uint64_t seed = 42;
};

/**
 * Validate the shared knobs — every generator calls this first.
 * @throws std::invalid_argument on num_requests <= 0 or a
 * non-positive/non-finite arrival rate, naming the offending knob.
 */
void validateTraceConfig(const TraceConfig &cfg);

/**
 * Knobs of the shared-prefix generator: K prompt families (distinct
 * shared prefixes, e.g. system prompts or few-shot templates) with
 * Zipf-distributed popularity, each request appending a unique
 * log-uniform suffix — the multi-tenant traffic shape prefix caching
 * and prefix-affinity routing are built for.
 */
struct SharedPrefixTraceConfig
{
    TraceConfig base;
    /** K: distinct prompt families. */
    int64_t num_families = 8;
    /** Tokens of the shared prefix every family member starts with. */
    int64_t prefix_len = 4096;
    /** Per-request unique suffix length, log-uniform in [lo, hi]. */
    int64_t suffix_lo = 64;
    int64_t suffix_hi = 512;
    /** Generation length, log-uniform in [lo, hi]. */
    int64_t gen_lo = 128;
    int64_t gen_hi = 1024;
    /** Zipf popularity exponent: family rank f is drawn with weight
     *  1 / (f+1)^s. 0 means uniform popularity. */
    double zipf_s = 1.0;
    /** Token-id alphabet (ids are drawn in [2, vocab)). */
    int32_t vocab = 32000;
};

/**
 * Shared-prefix trace: Poisson arrivals where each request samples a
 * family by Zipf popularity and carries concrete prompt token ids —
 * `prefix_len` tokens shared verbatim within its family followed by a
 * unique suffix — so serving::ReplicaEngine's kv::PrefixTree and the
 * PrefixAffinity router are drivable from benches and tests.
 * Each family's prefix is stored once, as a shared head block drawn
 * when the family first appears; each prompt is a
 * serving::PromptTokens of that head plus its own tail block holding
 * the suffix, every token written once. Token contents do not depend
 * on this layout.
 * Deterministic in cfg.base.seed; requests carry sequential ids in
 * arrival order and prompt_tokens.size() == prompt_len.
 * @throws std::invalid_argument on invalid knobs (non-positive
 * families/prefix/suffix/gen bounds, hi < lo, negative zipf_s,
 * vocab < 3, or a bad base config).
 */
std::vector<serving::Request> sharedPrefixTrace(
    const SharedPrefixTraceConfig &cfg);

/**
 * Knobs of the multi-turn session generator: conversations where each
 * turn's prompt replays the whole history so far — see
 * multiTurnTrace().
 */
struct MultiTurnTraceConfig
{
    /** base.num_requests counts *sessions*; the trace holds
     *  num_requests x turns requests. */
    TraceConfig base;
    /** Turns per session (user -> assistant round trips). */
    int64_t turns = 4;
    /** Opening user message length, log-uniform in [lo, hi]. */
    int64_t first_prompt_lo = 512;
    int64_t first_prompt_hi = 2048;
    /** Later-turn user message length, log-uniform in [lo, hi]. */
    int64_t followup_lo = 32;
    int64_t followup_hi = 256;
    /** Assistant reply (generation) length, log-uniform in [lo, hi]. */
    int64_t gen_lo = 128;
    int64_t gen_hi = 1024;
    /** Mean think time between a turn's arrival and the next turn's
     *  (exponential gap) — the trace is open-loop, so gaps anchor on
     *  arrivals, not completions. */
    double think_time_mean_s = 30.0;
    /** Token-id alphabet (ids are drawn in [2, vocab)). */
    int32_t vocab = 32000;
};

/**
 * Multi-turn conversation trace: each session opens with a user
 * message and every later turn's prompt is the full history — the
 * previous prompt, the previous turn's generated tokens (synthesized
 * deterministically, standing in for the assistant reply the serving
 * layer never materializes) and a fresh user message — so contexts
 * grow turn over turn. This is the traffic shape that makes
 * preemptive (Optimistic) scheduling fire: conversation history
 * inflates live KV mid-stream, and a replica's prefix cache can serve
 * each turn's history prefix from the previous turn's blocks.
 * Every turn's prompt is its own serving::PromptTokens block copied
 * from the growing history (turns of a session share no storage).
 * Deterministic in cfg.base.seed; requests carry sequential ids in
 * arrival order and prompt_tokens.size() == prompt_len.
 * @throws std::invalid_argument on invalid knobs (non-positive turns
 * or length bounds, hi < lo, non-positive/non-finite think time,
 * vocab < 3, or a bad base config).
 */
std::vector<serving::Request> multiTurnTrace(
    const MultiTurnTraceConfig &cfg);

/**
 * Knobs of the diurnal generator: a non-homogeneous Poisson process
 * whose rate follows one smooth day curve — trough at the period
 * edges, peak mid-period — around the mean rate `base` names. The
 * non-stationary arrival shape an SLO-driven autoscaler is sized
 * against: a fleet fixed for the peak idles at the trough, a fleet
 * fixed for the trough drowns at the peak.
 */
struct DiurnalTraceConfig
{
    /** base.arrival_rate_per_s is the *mean* rate over a full period;
     *  the curve oscillates around it at fixed total volume. */
    TraceConfig base;
    /** Seconds of one diurnal cycle (one simulated "day"). */
    double period_seconds = 600.0;
    /** Peak-rate : trough-rate ratio (>= 1; 1 = plain Poisson). With
     *  mean m and ratio r the curve spans trough 2m/(1+r) to peak
     *  2mr/(1+r). */
    double peak_to_trough = 4.0;
    /** Per-request prompt length, log-uniform in [lo, hi]. */
    int64_t prompt_lo = 512;
    int64_t prompt_hi = 4096;
    /** Generation length, log-uniform in [lo, hi]. */
    int64_t gen_lo = 128;
    int64_t gen_hi = 1024;
};

/**
 * Validate the diurnal knobs (also called by diurnalTrace()).
 * @throws std::invalid_argument on a bad base config, non-positive or
 * non-finite period, peak_to_trough < 1 or non-finite, or prompt/gen
 * bounds violating 0 < lo <= hi — naming the offending knob.
 */
void validateTraceConfig(const DiurnalTraceConfig &cfg);

/**
 * Diurnal trace: arrivals from a non-homogeneous Poisson process
 * (Lewis-Shedler thinning against the peak rate) whose rate is
 * trough + (peak - trough) * (1 - cos(2*pi*t / period)) / 2 — trough
 * at t = 0, peak at half-period, repeating every period. Lengths are
 * log-uniform per request. Deterministic in cfg.base.seed; requests
 * carry sequential ids in arrival order.
 * @throws std::invalid_argument on invalid knobs (see
 * validateTraceConfig(DiurnalTraceConfig)).
 */
std::vector<serving::Request> diurnalTrace(
    const DiurnalTraceConfig &cfg);

/**
 * Knobs of the flash-crowd generator: steady baseline traffic with
 * one rate spike over a fixed window [burst_start, burst_start +
 * burst_duration) — the breaking-news / product-launch shape that
 * punishes slow scale-up (the crowd is gone by the time a cold
 * replica finishes loading weights if the controller reacts late).
 */
struct FlashCrowdTraceConfig
{
    /** base.arrival_rate_per_s is the steady *baseline* rate. */
    TraceConfig base;
    /** Burst window: [start, start + duration) in trace seconds. */
    double burst_start_seconds = 120.0;
    double burst_duration_seconds = 60.0;
    /** Rate inside the window = baseline * multiplier (>= 1). */
    double burst_multiplier = 8.0;
    /** Per-request prompt length, log-uniform in [lo, hi]. */
    int64_t prompt_lo = 512;
    int64_t prompt_hi = 4096;
    /** Generation length, log-uniform in [lo, hi]. */
    int64_t gen_lo = 128;
    int64_t gen_hi = 1024;
};

/**
 * Validate the flash-crowd knobs (also called by flashCrowdTrace()).
 * @throws std::invalid_argument on a bad base config, a negative or
 * non-finite burst start, a non-positive or non-finite duration (the
 * window must be ordered: start < start + duration), burst_multiplier
 * < 1 or non-finite, or prompt/gen bounds violating 0 < lo <= hi.
 */
void validateTraceConfig(const FlashCrowdTraceConfig &cfg);

/**
 * Flash-crowd trace: baseline Poisson arrivals with the rate stepped
 * to baseline * burst_multiplier inside the burst window (thinning
 * against the burst rate). Lengths are log-uniform per request.
 * Deterministic in cfg.base.seed; requests carry sequential ids in
 * arrival order.
 * @throws std::invalid_argument on invalid knobs (see
 * validateTraceConfig(FlashCrowdTraceConfig)).
 */
std::vector<serving::Request> flashCrowdTrace(
    const FlashCrowdTraceConfig &cfg);

/**
 * Knobs of the RAG-spike generator: retrieval-augmented traffic where
 * every request stuffs a fat retrieved context into its prompt and
 * generates a short grounded answer — the prefill-heavy shape the
 * fleet's characterization suite was missing (huge prompt, tiny
 * generation, no cross-request sharing).
 */
struct RagSpikeTraceConfig
{
    TraceConfig base;
    /** Retrieved-context prompt length, log-uniform in [lo, hi]. */
    int64_t prompt_lo = 16384;
    int64_t prompt_hi = 65536;
    /** Answer length, log-uniform in [lo, hi] — deliberately tiny. */
    int64_t gen_lo = 16;
    int64_t gen_hi = 128;
};

/**
 * Validate the RAG-spike knobs (also called by ragSpikeTrace()).
 * @throws std::invalid_argument on a bad base config or prompt/gen
 * bounds violating 0 < lo <= hi — naming the offending knob.
 */
void validateTraceConfig(const RagSpikeTraceConfig &cfg);

/**
 * RAG-spike trace: Poisson arrivals of huge-prompt / tiny-generation
 * requests (each prompt a unique retrieved context, so the prefix
 * cache cannot help). Deterministic in cfg.base.seed; requests carry
 * sequential ids in arrival order.
 * @throws std::invalid_argument on invalid knobs (see
 * validateTraceConfig(RagSpikeTraceConfig)).
 */
std::vector<serving::Request> ragSpikeTrace(
    const RagSpikeTraceConfig &cfg);

/**
 * Knobs of the agentic tool-call loop generator: autonomous-agent
 * sessions that alternate short model steps (emit a tool call) with
 * tool executions whose output is appended to the context — so every
 * step replays a strictly growing history. base.num_requests counts
 * *sessions*; the trace holds num_requests x steps requests.
 */
struct AgenticLoopTraceConfig
{
    TraceConfig base;
    /** Think-act round trips per session. */
    int64_t steps = 8;
    /** Opening task prompt length, log-uniform in [lo, hi]. */
    int64_t task_prompt_lo = 256;
    int64_t task_prompt_hi = 1024;
    /** Tool output appended to the context per step, log-uniform in
     *  [lo, hi]. */
    int64_t tool_output_lo = 128;
    int64_t tool_output_hi = 1024;
    /** Model step generation (the tool call / final answer),
     *  log-uniform in [lo, hi] — short by construction. */
    int64_t gen_lo = 16;
    int64_t gen_hi = 128;
    /** Mean tool-execution latency between a step's arrival and the
     *  next step's (exponential gap; open-loop, anchored on
     *  arrivals). Tool calls are fast — seconds, not the ~30s think
     *  time of a human turn — which is what makes agent loops bursty. */
    double tool_latency_mean_s = 2.0;
    /** Token-id alphabet (ids are drawn in [2, vocab)). */
    int32_t vocab = 32000;
};

/**
 * Validate the agentic-loop knobs (also called by agenticLoopTrace()).
 * @throws std::invalid_argument on a bad base config, non-positive
 * steps, length bounds violating 0 < lo <= hi, a non-positive or
 * non-finite tool latency, or vocab < 3 — naming the offending knob.
 */
void validateTraceConfig(const AgenticLoopTraceConfig &cfg);

/**
 * Agentic tool-call loop trace: each session opens with a task prompt
 * and every later step's prompt is the full context so far — the
 * previous prompt, the model's previous (synthesized) tool-call
 * tokens, and the tool's output — arriving a short tool-execution
 * latency after the previous step. Contexts grow every step while
 * generations stay tiny, so live KV inflates fast and a replica's
 * prefix cache can serve each step's history from the previous step's
 * blocks: the KV-pressure shape that makes Optimistic preemption
 * churn. Every step's prompt is its own serving::PromptTokens block
 * copied from the growing context (steps of a session share no
 * storage). Deterministic in cfg.base.seed; requests carry sequential
 * ids in arrival order and prompt_tokens.size() == prompt_len.
 * @throws std::invalid_argument on invalid knobs (see
 * validateTraceConfig(AgenticLoopTraceConfig)).
 */
std::vector<serving::Request> agenticLoopTrace(
    const AgenticLoopTraceConfig &cfg);

/**
 * Poisson arrivals sampling uniformly from `mix`. Requests carry
 * sequential ids in arrival order; the list is sorted by arrival.
 * @throws std::invalid_argument on an empty mix or non-positive knobs.
 */
std::vector<serving::Request> poissonTrace(
    const TraceConfig &cfg, const std::vector<serving::Workload> &mix);

/** Poisson arrivals over the paper's four [in, out] workloads. */
std::vector<serving::Request> paperMixTrace(const TraceConfig &cfg);

/**
 * Mixed-length traffic: prompt lengths log-uniform in [1K, 32K],
 * generation lengths log-uniform in [256, 8K] — the heterogeneous
 * regime where wave barriers hurt most.
 */
std::vector<serving::Request> mixedLengthTrace(const TraceConfig &cfg);

/**
 * Statically partition a trace across `shards` replicas, round-robin
 * in arrival order (request i of the sorted trace lands in shard
 * i % shards) — the offline-splitting baseline a dynamic
 * serving::Router is measured against. Ids and arrival times are
 * preserved; each shard stays sorted by arrival.
 * @throws std::invalid_argument on zero shards.
 */
std::vector<std::vector<serving::Request>> splitTrace(
    std::vector<serving::Request> trace, size_t shards);

/**
 * Inverse of splitTrace (and of any per-replica partition): interleave
 * the shards back into one arrival-sorted trace. Equal arrival
 * instants resolve by cursor position then shard index — the original
 * round-robin interleave — so split-then-merge round-trips exactly,
 * even when a run of identical arrivals wraps around the fleet. Each
 * shard must already be sorted by arrival.
 */
std::vector<serving::Request> mergeTraces(
    const std::vector<std::vector<serving::Request>> &shards);

} // namespace workload
} // namespace specontext
