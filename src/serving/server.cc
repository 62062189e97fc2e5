#include "serving/server.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace specontext {
namespace serving {

namespace {

/** The one-replica fleet a Server runs. The facade never enables the
 *  prefix cache (budget 0 default), so a Server run stays the
 *  cache-free baseline a zero-budget Cluster is pinned against. */
ClusterConfig
singleReplicaCluster(const ServerConfig &cfg)
{
    if (cfg.max_batch <= 0)
        throw std::invalid_argument("Server: non-positive max_batch");
    ReplicaConfig rc;
    rc.timing = cfg.timing;
    rc.queue_policy = cfg.queue_policy;
    rc.max_batch = cfg.max_batch;
    rc.name = "server";
    ClusterConfig cc;
    cc.replicas = {rc};
    cc.obs = cfg.obs;
    cc.fast_path = cfg.fast_path;
    return cc;
}

} // namespace

Server::Server(const core::TimingEngine &engine, ServerConfig cfg)
    : cfg_(std::move(cfg)), cluster_(engine, singleReplicaCluster(cfg_))
{
}

ServeResult
Server::run(std::vector<Request> trace) const
{
    return std::move(cluster_.run(std::move(trace)).per_replica[0]);
}

ServeResult
serveWaves(const core::TimingEngine &engine, const ServerConfig &cfg,
           std::vector<Request> trace)
{
    if (cfg.max_batch <= 0)
        throw std::invalid_argument("serveWaves: non-positive max_batch");
    const std::unique_ptr<core::SystemPricer> pricer =
        engine.makePricer(cfg.timing);
    sortByArrival(trace);
    ServeResult out;
    double now = 0.0;
    // Every member's length, reused by each admission probe and decode
    // round.
    std::vector<int64_t> lens;

    // Static batching pads every member to the wave's longest prompt
    // and generation, so admission must price the padded shape.
    auto paddedFits = [&](const std::vector<Request> &wave,
                          const Request &cand) {
        int64_t prompt = cand.prompt_len, gen = cand.gen_len;
        for (const Request &r : wave) {
            prompt = std::max(prompt, r.prompt_len);
            gen = std::max(gen, r.gen_len);
        }
        if (prompt <= 0 || gen <= 0)
            return false; // degenerate request shape
        lens.assign(wave.size(), prompt + gen);
        return pricer->admit(lens, prompt, prompt + gen).admit;
    };

    size_t i = 0;
    while (i < trace.size()) {
        // The server went idle at `now`; a wave forms from whatever
        // has arrived by then (never from future arrivals — waiting
        // for them would inflate the baseline's queueing delay).
        if (trace[i].arrival_seconds > now)
            now = trace[i].arrival_seconds;
        std::vector<Request> wave;
        while (i < trace.size() &&
               trace[i].arrival_seconds <= now &&
               static_cast<int64_t>(wave.size()) < cfg.max_batch) {
            if (!paddedFits(wave, trace[i])) {
                if (wave.empty()) {
                    Request r = trace[i];
                    r.state = RequestState::Rejected;
                    out.rejected.push_back(std::move(r));
                    ++i;
                    continue;
                }
                break;
            }
            wave.push_back(trace[i]);
            ++i;
        }
        if (wave.empty())
            continue;

        int64_t max_prompt = 0, max_gen = 0;
        for (const Request &r : wave) {
            max_prompt = std::max(max_prompt, r.prompt_len);
            max_gen = std::max(max_gen, r.gen_len);
        }
        for (Request &r : wave) {
            r.admit_seconds = now;
            r.state = RequestState::Decoding;
        }
        // Padded batch prefill (prefill cost is linear in tokens, so
        // per-member padded prefill equals the batched GEMM cost);
        // each member joins on top of the previously prefilled ones'
        // resident KV.
        for (size_t k = 0; k < wave.size(); ++k) {
            now += pricer->prefillSeconds(
                max_prompt, static_cast<int64_t>(k),
                static_cast<int64_t>(k) * max_prompt);
        }

        for (int64_t t = 0; t < max_gen; ++t) {
            lens.assign(wave.size(), max_prompt + t);
            now += pricer->decodeSeconds(lens);
            ++out.iterations;
            for (Request &r : wave) {
                if (r.first_token_seconds < 0.0)
                    r.first_token_seconds = now;
            }
        }
        // Barrier out: every member retires when the wave does, even
        // those whose own generation finished early.
        for (Request &r : wave) {
            r.generated = r.gen_len;
            r.finish_seconds = now;
            r.state = RequestState::Finished;
            out.metrics.record(r);
        }
        out.peak_in_flight = std::max(
            out.peak_in_flight, static_cast<int64_t>(wave.size()));
    }
    out.makespan_seconds = now;
    return out;
}

} // namespace serving
} // namespace specontext
