#include "serving/scheduler.h"

#include <stdexcept>
#include <string>

namespace specontext {
namespace serving {

const char *
schedulerModeName(SchedulerMode m)
{
    switch (m) {
      case SchedulerMode::Reserve: return "reserve";
      case SchedulerMode::Optimistic: return "optimistic";
    }
    return "?";
}

const char *
victimPolicyName(VictimPolicy p)
{
    switch (p) {
      case VictimPolicy::LastAdmitted: return "last-admitted";
      case VictimPolicy::ShortestProgress: return "shortest-progress";
      case VictimPolicy::FewestPrefixHitTokens:
        return "fewest-prefix-hits";
    }
    return "?";
}

void
PreemptionStats::merge(const PreemptionStats &other)
{
    preemptions += other.preemptions;
    restores += other.restores;
    recompute_tokens += other.recompute_tokens;
    restore_prefill_tokens += other.restore_prefill_tokens;
}

Scheduler::Scheduler(const core::TimingConfig &timing, SchedulerConfig cfg)
    : cfg_(cfg), pricer_(core::TimingEngine().makePricer(timing)),
      queue_(cfg.queue_policy)
{
    if (cfg_.max_batch <= 0)
        throw std::invalid_argument("Scheduler: non-positive max_batch");
}

void
Scheduler::attachObservability(const obs::Observability &obs,
                               int64_t replica_id)
{
    counters_ = obs.counters;
    if (!counters_)
        return;
    const std::string prefix =
        "replica" + std::to_string(replica_id) + ".";
    admit_checks_ = counters_->counter(prefix + "admit_checks");
    admit_denials_ = counters_->counter(prefix + "admit_denials");
    victim_selections_ =
        counters_->counter(prefix + "victim_selections");
}

void
Scheduler::enqueue(Request r)
{
    queued_final_tokens_ += r.finalLen();
    queued_live_tokens_ += r.kvLen();
    queue_.push(std::move(r));
}

Request
Scheduler::pop()
{
    Request r = queue_.pop();
    queued_final_tokens_ -= r.finalLen();
    queued_live_tokens_ -= r.kvLen();
    return r;
}

AdmissionDecision
Scheduler::admit(const std::vector<Request> &active,
                 const Request &candidate) const
{
    const AdmissionDecision d = admitUncounted(active, candidate);
    if (counters_) {
        counters_->add(admit_checks_, 1);
        if (!d.admit)
            counters_->add(admit_denials_, 1);
    }
    return d;
}

namespace {

bool
degenerate(const Request &r)
{
    return r.prompt_len <= 0 || r.gen_len <= 0;
}

} // namespace

AdmissionDecision
Scheduler::admitUncounted(const std::vector<Request> &active,
                          const Request &candidate) const
{
    if (cfg_.mode == SchedulerMode::Reserve) {
        // Every request is priced at its final-length reservation.
        if (degenerate(candidate))
            return {false, "degenerate request shape"};
        lens_.clear();
        for (const Request &q : active)
            lens_.push_back(q.finalLen());
        return pricer_->admit(lens_, candidate.prompt_len,
                              candidate.finalLen());
    }
    // Optimistic: a request whose *final* context could never fit even
    // on an idle replica must still hard-reject — admitted on its
    // (smaller) current footprint it would grow until no victim set
    // can save it, then cycle through preempt/restore forever.
    if (!feasibleAlone(candidate))
        return {false,
                "final-length reservation infeasible even alone"};
    // And its worst-case restore (a full final-context prefill) must
    // fit alone too: otherwise a preemption deep into generation
    // would strand the request — permanently denied re-admission and
    // eventually dropped as Rejected with its completed work lost.
    // Only prefill-scratch-heavy systems (eager attention's O(S^2)
    // term) distinguish this from the final-length gate above.
    if (!restoreFeasibleAlone(candidate))
        return {false,
                "worst-case restore (final-context prefill) "
                "infeasible even alone"};
    // The batch at its live contexts; the candidate's live footprint
    // after (re)prefill is its current context — prompt plus whatever
    // it had generated before a preemption — which is also the
    // prefill shape.
    lens_.clear();
    for (const Request &q : active)
        lens_.push_back(q.kvLen());
    return pricer_->admit(lens_, candidate.kvLen(), candidate.kvLen());
}

bool
Scheduler::feasibleAlone(const Request &candidate) const
{
    if (degenerate(candidate))
        return false;
    lens_.clear();
    return pricer_->admit(lens_, candidate.prompt_len, candidate.finalLen())
        .admit;
}

bool
Scheduler::restoreFeasibleAlone(const Request &candidate) const
{
    if (degenerate(candidate))
        return false;
    // The deepest possible restore prefills the whole final context in
    // one pass (all gen_len tokens generated, then preempted); prompt
    // monotonicity makes this the worst prefill-scratch shape.
    lens_.clear();
    return pricer_->admit(lens_, candidate.finalLen(), candidate.finalLen())
        .admit;
}

int64_t
Scheduler::decodeFitRounds(const std::vector<Request> &active,
                           int64_t max_rounds) const
{
    if (cfg_.mode == SchedulerMode::Reserve)
        return max_rounds; // reservations already cover all growth
    // Round 0 prices the next token; the pricer grows the lengths.
    lens_.clear();
    for (const Request &q : active)
        lens_.push_back(q.kvLen() + 1);
    return pricer_->fitRounds(lens_, max_rounds);
}

namespace {

/** Shared equal-pressure tie-break: the (progress, arrival, id) total
 *  order, mirroring the ShortestPromptFirst queue tie-break. */
bool
tieBreakPrecedes(const Request &a, const Request &b)
{
    if (a.generated != b.generated)
        return a.generated < b.generated;
    if (a.arrival_seconds != b.arrival_seconds)
        return a.arrival_seconds < b.arrival_seconds;
    return a.id < b.id;
}

} // namespace

size_t
Scheduler::selectVictim(const std::vector<Request> &active) const
{
    if (active.empty())
        throw std::logic_error("Scheduler: victim from an empty batch");
    auto precedes = [&](const Request &a, const Request &b) {
        switch (cfg_.victim_policy) {
          case VictimPolicy::LastAdmitted:
            if (a.last_admit_seconds != b.last_admit_seconds)
                return a.last_admit_seconds > b.last_admit_seconds;
            break;
          case VictimPolicy::ShortestProgress:
            // Primary key == the tie-break's first component.
            break;
          case VictimPolicy::FewestPrefixHitTokens:
            if (a.cached_prompt_len != b.cached_prompt_len)
                return a.cached_prompt_len < b.cached_prompt_len;
            break;
        }
        return tieBreakPrecedes(a, b);
    };
    size_t best = 0;
    for (size_t i = 1; i < active.size(); ++i) {
        if (precedes(active[i], active[best]))
            best = i;
    }
    if (counters_)
        counters_->add(victim_selections_, 1);
    return best;
}

} // namespace serving
} // namespace specontext
