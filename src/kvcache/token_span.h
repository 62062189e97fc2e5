/**
 * @file
 * Read-only view of a run of token ids: a pointer and a length borrowed
 * from whoever owns the tokens. The prefix tree and the router read
 * prompts through it, so they accept a std::vector<int32_t> and a
 * serving::PromptTokens alike without copying either.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace specontext {
namespace kv {

/** Non-owning view of token ids; the owner must outlive it. */
class TokenSpan
{
  public:
    constexpr TokenSpan() noexcept = default;
    constexpr TokenSpan(const int32_t *data, size_t size) noexcept
        : data_(data), size_(size)
    {
    }
    TokenSpan(const std::vector<int32_t> &tokens) noexcept
        : data_(tokens.data()), size_(tokens.size())
    {
    }

    const int32_t *data() const noexcept { return data_; }
    size_t size() const noexcept { return size_; }
    int32_t operator[](size_t i) const noexcept { return data_[i]; }

  private:
    const int32_t *data_ = nullptr;
    size_t size_ = 0;
};

} // namespace kv
} // namespace specontext
