#include "serving/admission.h"

#include <algorithm>
#include <stdexcept>

namespace specontext {
namespace serving {

AdmissionController::AdmissionController(core::TimingConfig cfg)
    : cfg_(std::move(cfg))
{
    if (!cfg_.system)
        throw std::invalid_argument(
            "AdmissionController: TimingConfig.system is null");
    cfg_.llm.validate();
    cfg_.hw.validate();
    if (!cfg_.system->supportsContinuousBatching())
        throw std::invalid_argument(
            "AdmissionController: system is wave-scheduled only");
    pricer_ = cfg_.system->makePricer(cfg_);
}

AdmissionDecision
AdmissionController::admit(const std::vector<Request> &in_flight,
                           const Request &candidate) const
{
    if (candidate.prompt_len <= 0 || candidate.gen_len <= 0)
        return {false, "degenerate request shape"};
    lens_scratch_.clear();
    for (const Request &q : in_flight)
        lens_scratch_.push_back(q.finalLen());
    return pricer_->admit(lens_scratch_, candidate.prompt_len,
                          candidate.finalLen());
}

AdmissionDecision
AdmissionController::admitCurrent(const std::vector<Request> &in_flight,
                                  const Request &candidate) const
{
    if (candidate.prompt_len <= 0 || candidate.gen_len <= 0)
        return {false, "degenerate request shape"};
    lens_scratch_.clear();
    for (const Request &q : in_flight)
        lens_scratch_.push_back(q.kvLen());
    // The candidate's live footprint after (re)prefill is its current
    // context — prompt plus whatever it had generated before a
    // preemption; that recompute is also the prefill shape.
    return pricer_->admit(lens_scratch_, candidate.kvLen(),
                          candidate.kvLen());
}

AdmissionDecision
AdmissionController::decodeStepFits(
    const std::vector<Request> &in_flight) const
{
    lens_scratch_.clear();
    for (const Request &q : in_flight)
        lens_scratch_.push_back(q.kvLen() + 1);
    return pricer_->fitsCurrent(lens_scratch_);
}

int64_t
AdmissionController::decodeFitRounds(const std::vector<Request> &in_flight,
                                     int64_t max_rounds) const
{
    if (max_rounds <= 0)
        return 0;
    if (in_flight.empty())
        return max_rounds;
    // pass(j): the exact decodeStepFits() predicate evaluated j rounds
    // ahead — every context at kvLen() + 1 + j.
    const auto pass = [&](int64_t j) {
        lens_scratch_.clear();
        for (const Request &q : in_flight)
            lens_scratch_.push_back(q.kvLen() + 1 + j);
        return pricer_->fitsCurrent(lens_scratch_).admit;
    };
    if (!pass(0))
        return 0;
    // Gallop out from the known-true probe, then bisect to the first
    // failure. Monotonicity (see header) makes the frontier a single
    // threshold, so ~2 log2(max_rounds) probes bound it exactly.
    int64_t t = 0;  // highest probe index known true
    int64_t f = -1; // lowest probe index known false (-1: none yet)
    for (int64_t step = 1; t < max_rounds - 1; step *= 2) {
        const int64_t p = std::min(t + step, max_rounds - 1);
        if (pass(p)) {
            t = p;
        } else {
            f = p;
            break;
        }
    }
    if (f < 0)
        return max_rounds; // probes 0..max_rounds-1 all pass
    while (f - t > 1) {
        const int64_t mid = t + (f - t) / 2;
        if (pass(mid))
            t = mid;
        else
            f = mid;
    }
    return f; // pass(j) holds exactly for j < f
}

bool
AdmissionController::feasibleAlone(const Request &candidate) const
{
    return admit({}, candidate).admit;
}

bool
AdmissionController::restoreFeasibleAlone(const Request &candidate) const
{
    if (candidate.prompt_len <= 0 || candidate.gen_len <= 0)
        return false;
    // The deepest possible restore prefills the whole final context in
    // one pass (all gen_len tokens generated, then preempted); prompt
    // monotonicity makes this the worst prefill-scratch shape.
    lens_scratch_.clear();
    return pricer_
        ->admit(lens_scratch_, candidate.finalLen(), candidate.finalLen())
        .admit;
}

} // namespace serving
} // namespace specontext
