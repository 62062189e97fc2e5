/**
 * @file
 * Single-replica continuous-batching server: a 1-replica
 * serving::Cluster under a single-server API. The iteration-level
 * scheduling loop lives in serving::ReplicaEngine and the event loop
 * in Cluster::run, so Server has no driver loop of its own.
 *
 * The seed's wave scheduler (serving/batch_sweep.h) launches a fixed
 * batch and holds a barrier until every member finishes — the paper's
 * Table 3 setup. Production traffic is open-loop and mixed-length, so
 * this server instead advances all in-flight requests ONE decode
 * iteration at a time, priced by a core::SystemPricer,
 * admitting newly arrived requests (the serving::Scheduler asks that
 * pricer whether their KV reservation fits) and retiring finished ones
 * at every iteration boundary — no barriers, Orca/vLLM-style.
 *
 * serveWaves() runs the same trace through barrier scheduling with
 * identical cost accounting, so the two disciplines are directly
 * comparable (bench/bench_serving_continuous.cc).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/timing_engine.h"
#include "serving/cluster.h"
#include "serving/fast_path.h"
#include "serving/metrics.h"
#include "serving/replica_engine.h"
#include "serving/request.h"
#include "serving/request_queue.h"

namespace specontext {
namespace serving {

/** Server configuration. */
struct ServerConfig
{
    core::TimingConfig timing; ///< system, geometry, hardware, budget
    QueuePolicy queue_policy = QueuePolicy::Fifo;
    /** Hard cap on in-flight requests (scheduler table size); memory
     *  admission usually binds first. */
    int64_t max_batch = 64;
    /** Observability hooks, forwarded to the underlying Cluster
     *  (all-null default = bit-identical unobserved server). */
    obs::Observability obs;
    /** Simulator speed switches, forwarded to the underlying Cluster
     *  (both on by default; era stepping never engages on one
     *  replica). Bit-exact either way. */
    SimFastPath fast_path;
};

/** Iteration-level continuous-batching server (one replica). */
class Server
{
  public:
    /**
     * @throws std::invalid_argument when cfg.timing.system cannot be
     * continuously batched or max_batch is non-positive.
     */
    Server(const core::TimingEngine &engine, ServerConfig cfg);

    const ServerConfig &config() const { return cfg_; }

    /**
     * Serve an open-loop arrival trace to completion. Requests are
     * sorted by arrival time; ids are preserved. Every feasible
     * request finishes (FIFO is starvation-free); requests that cannot
     * fit even alone come back in ServeResult::rejected.
     *
     * This is the single replica's result of a 1-replica Cluster run
     * over the same trace (tests/test_cluster.cc pins the parity),
     * and throws as Cluster::run does on a bad arrival time or a
     * prompt_tokens size that disagrees with prompt_len.
     */
    ServeResult run(std::vector<Request> trace) const;

  private:
    ServerConfig cfg_;
    Cluster cluster_;
};

/**
 * Wave-scheduled baseline over the same trace and cost accounting:
 * requests are grouped in arrival order into batches of at most
 * cfg.max_batch (shrunk to what admission accepts), each wave waits
 * for all members to arrive, pads every member to the wave's longest
 * prompt/generation, and holds the barrier until the wave completes.
 */
ServeResult serveWaves(const core::TimingEngine &engine,
                       const ServerConfig &cfg,
                       std::vector<Request> trace);

} // namespace serving
} // namespace specontext
