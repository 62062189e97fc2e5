/**
 * @file
 * Immutable, reference-counted prompt token ids.
 *
 * A trace is copied whole whenever it is served (Cluster::run and
 * Server::run take it by value so they can sort it), and a long-context
 * prompt is kilobytes of token ids the simulation only ever reads.
 * PromptTokens keeps them in one heap block, [refcount | length |
 * tokens], shared by every copy: copying a Request bumps the counter
 * instead of copying its tokens. The tokens are written exactly once,
 * before the block can be shared (the vector constructor, or the
 * `fill` callback of filled()), and nothing writes them afterwards.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "kvcache/token_span.h"

namespace specontext {
namespace serving {

/** Shared immutable token ids; the default value is the empty prompt
 *  and owns no block. */
class PromptTokens
{
  public:
    PromptTokens() noexcept = default;

    /** A new block holding a copy of `tokens` (no block when empty). */
    explicit PromptTokens(const std::vector<int32_t> &tokens);

    /**
     * A new block of `n` tokens written in place by `fill(out)`, which
     * must write out[0], ..., out[n-1] once each. The block is not
     * shared until this returns. No block when `n` is 0 (`fill` is
     * not called).
     */
    template <class Fill>
    static PromptTokens
    filled(size_t n, Fill &&fill)
    {
        PromptTokens p;
        if (n > 0) {
            p.block_ = allocate(n);
            fill(p.block_->tokens()); // a throw frees the block via ~p
        }
        return p;
    }

    PromptTokens(const PromptTokens &other) noexcept
        : block_(other.block_)
    {
        if (block_)
            ++block_->refs;
    }

    PromptTokens(PromptTokens &&other) noexcept
        : block_(std::exchange(other.block_, nullptr))
    {
    }

    PromptTokens &
    operator=(PromptTokens other) noexcept
    {
        std::swap(block_, other.block_);
        return *this;
    }

    ~PromptTokens() { reset(); }

    /** Drop this reference, leaving the empty prompt; the block is
     *  freed with its last reference. */
    void
    reset() noexcept
    {
        if (block_ && --block_->refs == 0) {
            block_->~Block();
            ::operator delete(block_);
        }
        block_ = nullptr;
    }

    size_t size() const noexcept { return block_ ? block_->size : 0; }
    bool empty() const noexcept { return block_ == nullptr; }
    const int32_t *
    data() const noexcept
    {
        return block_ ? block_->tokens() : nullptr;
    }
    const int32_t *begin() const noexcept { return data(); }
    const int32_t *end() const noexcept { return data() + size(); }

    /** The read-only view the prefix tree and the router take. */
    operator kv::TokenSpan() const noexcept { return {data(), size()}; }

    /** Content equality: same length and same token ids. */
    friend bool operator==(const PromptTokens &a, const PromptTokens &b);

  private:
    /** Header of the one heap block; the tokens follow it. */
    struct Block
    {
        explicit Block(size_t n) : size(n) {}

        int32_t *
        tokens() noexcept
        {
            return reinterpret_cast<int32_t *>(this + 1);
        }

        std::atomic<int64_t> refs{1};
        size_t size;
    };
    static_assert(sizeof(Block) % alignof(int32_t) == 0,
                  "tokens must start aligned right after the header");

    /** A block for `n` tokens (uninitialized), holding one reference. */
    static Block *allocate(size_t n);

    Block *block_ = nullptr;
};

} // namespace serving
} // namespace specontext
