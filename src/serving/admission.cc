#include "serving/admission.h"

#include <stdexcept>
#include <utility>

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
    // Round 0 is the decodeStepFits() lengths; the pricer grows them.
    lens_scratch_.clear();
    for (const Request &q : in_flight)
        lens_scratch_.push_back(q.kvLen() + 1);
    return pricer_->fitRounds(lens_scratch_, max_rounds);
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
