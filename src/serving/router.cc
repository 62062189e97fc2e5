#include "serving/router.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "kvcache/token_span.h"
#include "tensor/hash.h"

namespace specontext {
namespace serving {

const char *
routerPolicyName(RouterPolicy p)
{
    switch (p) {
      case RouterPolicy::RoundRobin: return "round-robin";
      case RouterPolicy::JoinShortestQueue: return "join-shortest-queue";
      case RouterPolicy::LeastKvLoad: return "least-kv-load";
      case RouterPolicy::TwoTier: return "two-tier";
      case RouterPolicy::PrefixAffinity: return "prefix-affinity";
    }
    return "?";
}

void
RouterConfig::validate() const
{
    if (std::string(routerPolicyName(policy)) == "?")
        throw std::invalid_argument(
            "RouterConfig: policy " +
            std::to_string(static_cast<int>(policy)) +
            " is not a RouterPolicy");
    if (affinity_spill_slack < 0)
        throw std::invalid_argument(
            "RouterConfig: affinity_spill_slack must be >= 0, got " +
            std::to_string(affinity_spill_slack));
}

Router::Router(RouterConfig cfg) : cfg_(cfg) { cfg_.validate(); }

void
Router::attachObservability(const obs::Observability &obs,
                            size_t fleet_size)
{
    counters_ = obs.counters;
    if (!counters_)
        return;
    placements_ = counters_->counter("router.placements");
    affinity_spills_ = counters_->counter("router.affinity_spills");
    to_replica_.clear();
    to_replica_.reserve(fleet_size);
    for (size_t i = 0; i < fleet_size; ++i) {
        to_replica_.push_back(counters_->counter(
            "router.to_replica" + std::to_string(i)));
    }
}

namespace {

using Fleet = std::vector<std::unique_ptr<ReplicaEngine>>;

/** Candidate minimizing `score`; ties toward the lowest index (the
 *  candidate list is ascending). */
template <typename Score>
size_t
argminReplica(const std::vector<size_t> &candidates, const Score &score)
{
    size_t best = candidates.front();
    double best_score = score(best);
    for (size_t k = 1; k < candidates.size(); ++k) {
        const double s = score(candidates[k]);
        if (s < best_score) {
            best = candidates[k];
            best_score = s;
        }
    }
    return best;
}

size_t
joinShortestQueue(const std::vector<size_t> &candidates,
                  const Fleet &fleet)
{
    return argminReplica(candidates, [&](size_t i) {
        return static_cast<double>(fleet[i]->outstanding());
    });
}

size_t
leastKvLoad(const Request &r, const std::vector<size_t> &candidates,
            const Fleet &fleet)
{
    // Mode-aware load signal: Reserve replicas are scored on booked
    // final-length reservations (bit-identical to the historical
    // kvLoadFraction(r.finalLen())), Optimistic replicas on the live
    // occupancy their preemptive discipline actually holds — booked
    // finals would systematically overstate their pressure and starve
    // them of traffic they could absorb.
    return argminReplica(candidates, [&](size_t i) {
        return fleet[i]->routingLoadFraction(r);
    });
}

/** FNV-1a 64 over the first `n` token ids, folded least-significant
 *  byte first so the value is endianness-independent — the
 *  deterministic sticky home of a cold prompt family. */
uint64_t
hashTokens(kv::TokenSpan tokens, size_t n)
{
    uint64_t h = kFnv1a64OffsetBasis;
    for (size_t i = 0; i < n && i < tokens.size(); ++i) {
        const auto t = static_cast<uint32_t>(tokens[i]);
        for (int shift = 0; shift < 32; shift += 8) {
            h ^= (t >> shift) & 0xffu;
            h *= kFnv1a64Prime;
        }
    }
    return h;
}

} // namespace

size_t
Router::prefixAffinity(const Request &r,
                       const std::vector<size_t> &candidates,
                       const Fleet &fleet,
                       const std::vector<size_t> &routable,
                       int64_t *affinity_spills)
{
    // Load escape shared by the warm and cold sticky paths: stick
    // only while the sticky pick owes at most affinity_spill_slack
    // requests more than the least-loaded candidate — past that,
    // re-prefilling the prefix is cheaper than queueing behind a hot
    // family.
    const size_t least = leastKvLoad(r, candidates, fleet);
    auto stickyOrSpill = [&](size_t sticky) {
        const bool spill =
            fleet[sticky]->outstanding() >
            fleet[least]->outstanding() + cfg_.affinity_spill_slack;
        if (spill && affinity_spills)
            ++*affinity_spills;
        return spill ? least : sticky;
    };

    // Warm path: the replica with the longest cached prefix of this
    // prompt wins — it skips the most prefill work. Ties (several
    // replicas equally warm, or none warm at all for a token-less
    // request) break by KV load, then lowest index.
    int64_t best_hit = 0;
    std::vector<int64_t> &hits = hits_scratch_;
    hits.assign(candidates.size(), 0);
    for (size_t k = 0; k < candidates.size(); ++k) {
        hits[k] = fleet[candidates[k]]->prefixHitTokens(r);
        best_hit = std::max(best_hit, hits[k]);
    }
    if (best_hit > 0) {
        std::vector<size_t> &warmest = warmest_scratch_;
        warmest.clear();
        for (size_t k = 0; k < candidates.size(); ++k) {
            if (hits[k] == best_hit)
                warmest.push_back(candidates[k]);
        }
        return stickyOrSpill(leastKvLoad(r, warmest, fleet));
    }
    // Cold prompt with tokens: hash its first cache block onto the
    // cache-enabled replicas, so every request of the same family
    // has the same sticky home before any cache state exists — one
    // fleet-wide cold prefill per family instead of one per replica.
    // Only cached replicas are hashable homes (a cache-less one can
    // never warm up, which would strand the family on full prefill
    // forever), and the modulus runs over the *whole routable set's*
    // cached replicas — not this request's candidate subset — so
    // same-family requests with different feasibility still agree on
    // the home; a request its home cannot serve falls back to
    // least-kv-load. (On an elastic fleet the routable set shifts with
    // scale events, re-homing cold families — the warm path above
    // keeps already-cached families sticky regardless.) The block
    // length is the widest cache page among the cached replicas so
    // the hashed span is block-aligned everywhere.
    if (!r.prompt_tokens.empty()) {
        int64_t page = 0;
        std::vector<size_t> &cached = cached_scratch_;
        cached.clear();
        for (size_t i : routable) {
            if (fleet[i]->prefixCacheEnabled()) {
                cached.push_back(i);
                page = std::max(
                    page, fleet[i]->config().prefix_cache.page_size);
            }
        }
        if (!cached.empty()) {
            const uint64_t h =
                hashTokens(r.prompt_tokens, static_cast<size_t>(page));
            const size_t home = cached[h % cached.size()];
            for (size_t c : candidates) {
                if (c == home)
                    return stickyOrSpill(home);
            }
        }
    }
    // No tokens, no caches anywhere, or an infeasible home: plain
    // least-kv-load.
    return least;
}

size_t
Router::route(const Request &r, const Fleet &fleet)
{
    std::vector<size_t> all(fleet.size());
    for (size_t i = 0; i < fleet.size(); ++i)
        all[i] = i;
    return route(r, fleet, all);
}

size_t
Router::route(const Request &r, const Fleet &fleet,
              const std::vector<size_t> &routable)
{
    int64_t affinity_spills = 0;
    const size_t pick = pickReplica(r, fleet, routable, &affinity_spills);
    if (counters_) {
        // Replicas attached after attachObservability() (elastic
        // scale-up) get their skew counter on first placement.
        while (to_replica_.size() <= pick) {
            to_replica_.push_back(counters_->counter(
                "router.to_replica" +
                std::to_string(to_replica_.size())));
        }
        counters_->add(placements_, 1);
        counters_->add(to_replica_[pick], 1);
        if (affinity_spills > 0)
            counters_->add(affinity_spills_, affinity_spills);
    }
    return pick;
}

void
Router::feasibleReplicas(const Request &r, const Fleet &fleet,
                         const std::vector<size_t> &routable,
                         std::vector<size_t> &out)
{
    out.clear();
    for (size_t i : routable)
        if (fleet[i]->scheduler().feasibleAlone(r))
            out.push_back(i);
    if (out.empty())
        out.assign(routable.begin(), routable.end());
}

size_t
Router::pickReplica(const Request &r, const Fleet &fleet,
                    const std::vector<size_t> &routable,
                    int64_t *affinity_spills)
{
    if (fleet.empty())
        throw std::invalid_argument("Router: empty fleet");
    if (routable.empty())
        throw std::invalid_argument("Router: empty routable set");
    feasibleReplicas(r, fleet, routable, feasible_scratch_);
    const std::vector<size_t> &candidates = feasible_scratch_;

    switch (cfg_.policy) {
      case RouterPolicy::RoundRobin: {
        // Next candidate at or after the cursor, cyclically; the
        // cursor sweeps the whole fleet so heterogeneous feasibility
        // does not skew the rotation.
        for (size_t probe = 0; probe < fleet.size(); ++probe) {
            const size_t i = (rr_cursor_ + probe) % fleet.size();
            for (size_t c : candidates) {
                if (c == i) {
                    rr_cursor_ = (i + 1) % fleet.size();
                    return i;
                }
            }
        }
        return candidates.front(); // unreachable: candidates non-empty
      }

      case RouterPolicy::JoinShortestQueue:
        return joinShortestQueue(candidates, fleet);

      case RouterPolicy::LeastKvLoad:
        return leastKvLoad(r, candidates, fleet);

      case RouterPolicy::PrefixAffinity:
        return prefixAffinity(r, candidates, fleet, routable,
                              affinity_spills);

      case RouterPolicy::TwoTier: {
        // The big tier is defined by the routable set's HBM maximum,
        // so a retired big replica does not strand long prompts on a
        // tier that no longer exists.
        int64_t max_hbm = 0;
        for (size_t i : routable)
            max_hbm = std::max(
                max_hbm, fleet[i]->config().timing.hw.gpu_mem_bytes);
        const bool is_long = r.prompt_len >= cfg_.long_prompt_threshold;
        std::vector<size_t> tier;
        for (size_t i : candidates) {
            const bool big =
                fleet[i]->config().timing.hw.gpu_mem_bytes == max_hbm;
            if (big == is_long)
                tier.push_back(i);
        }
        if (tier.empty())
            tier = candidates;
        return joinShortestQueue(tier, fleet);
      }
    }
    throw std::logic_error("Router: unknown policy");
}

} // namespace serving
} // namespace specontext
