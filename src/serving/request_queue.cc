#include "serving/request_queue.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace specontext {
namespace serving {

void
sortByArrival(std::vector<Request> &trace)
{
    const auto earlier = [](const Request &a, const Request &b) {
        return a.arrival_seconds < b.arrival_seconds;
    };
    // Generated traces arrive sorted; a stable sort of a sorted range
    // is the identity, so skip its buffer and moves.
    if (!std::is_sorted(trace.begin(), trace.end(), earlier))
        std::stable_sort(trace.begin(), trace.end(), earlier);
}

const char *
requestStateName(RequestState s)
{
    switch (s) {
      case RequestState::Queued: return "Queued";
      case RequestState::Decoding: return "Decoding";
      case RequestState::Preempted: return "Preempted";
      case RequestState::Finished: return "Finished";
      case RequestState::Rejected: return "Rejected";
    }
    return "?";
}

const char *
queuePolicyName(QueuePolicy p)
{
    switch (p) {
      case QueuePolicy::Fifo: return "FIFO";
      case QueuePolicy::ShortestPromptFirst: return "SPF";
    }
    return "?";
}

RequestQueue::RequestQueue(QueuePolicy policy)
    : policy_(policy)
{
}

void
RequestQueue::push(Request r)
{
    waiting_.push_back(std::move(r));
}

size_t
RequestQueue::candidateIndex() const
{
    if (empty())
        throw std::logic_error("RequestQueue: empty");
    if (policy_ == QueuePolicy::Fifo)
        return head_;
    // Shortest prompt first. Ties break on arrival time, then request
    // id — an explicit total order, so cluster runs are bit-reproducible
    // regardless of how the caller happened to enqueue equal-length
    // requests (insertion order is not guaranteed to be id order once a
    // router interleaves deliveries).
    auto precedes = [](const Request &a, const Request &b) {
        if (a.prompt_len != b.prompt_len)
            return a.prompt_len < b.prompt_len;
        if (a.arrival_seconds != b.arrival_seconds)
            return a.arrival_seconds < b.arrival_seconds;
        return a.id < b.id;
    };
    size_t best = head_;
    for (size_t i = head_ + 1; i < waiting_.size(); ++i) {
        if (precedes(waiting_[i], waiting_[best]))
            best = i;
    }
    return best;
}

const Request &
RequestQueue::peek() const
{
    return waiting_[candidateIndex()];
}

void
RequestQueue::maybeCompact()
{
    if (head_ == waiting_.size()) {
        waiting_.clear();
        head_ = 0;
        return;
    }
    // Compact only when the dead prefix dominates, so the amortized
    // move cost per pop stays O(1).
    if (head_ >= 64 && head_ * 2 >= waiting_.size()) {
        waiting_.erase(waiting_.begin(),
                       waiting_.begin() +
                           static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
}

Request
RequestQueue::pop()
{
    const size_t idx = candidateIndex();
    Request r = std::move(waiting_[idx]);
    if (idx == head_) {
        ++head_;
        maybeCompact();
    } else {
        // SPF picked from the middle; order of the remaining live
        // entries must be preserved, so this stays an erase.
        waiting_.erase(waiting_.begin() +
                       static_cast<std::ptrdiff_t>(idx));
    }
    return r;
}

} // namespace serving
} // namespace specontext
