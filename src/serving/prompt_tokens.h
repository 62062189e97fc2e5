/**
 * @file
 * Immutable, reference-counted prompt token ids: an optional shared
 * head followed by the prompt's own tail.
 *
 * A trace is copied whole whenever it is served (Cluster::run and
 * Server::run take it by value so they can sort it), and a long-context
 * prompt is kilobytes of token ids the simulation only ever reads.
 * PromptTokens keeps them in kv::TokenBlock storage shared by every
 * copy: it is one pointer, to the block holding the prompt's own
 * tokens, so copying a Request bumps one counter instead of copying
 * tokens. Prompts that share a long prefix (workload::
 * sharedPrefixTrace's families) can store it once, as a *head* block
 * that each prompt's tail block names in its header; the prompt then
 * reads as the head's tokens followed by the tail's. A head has no
 * head of its own, so a prompt is at most two pieces. Every token is
 * written exactly once, before its block can be shared (the vector
 * constructor, or the `fill` callback of filled() / withHead()), and
 * nothing writes it afterwards.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "kvcache/token_block.h"
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
        return withHead(PromptTokens(), n, std::forward<Fill>(fill));
    }

    /**
     * `head`'s tokens followed by a new tail block of `n` tokens
     * written in place by `fill(out)` as in filled(). The head's block
     * is shared, not copied. An empty `head` makes this filled(n);
     * `n` == 0 returns `head` itself.
     * @throws std::invalid_argument when `n` > 0 and `head` has a head
     * of its own.
     */
    template <class Fill>
    static PromptTokens
    withHead(const PromptTokens &head, size_t n, Fill &&fill)
    {
        if (n == 0)
            return head;
        kv::TokenBlock *tail = kv::TokenBlock::create(n, head.block_.get());
        PromptTokens p;
        p.block_ = kv::BlockRef::adopt(tail);
        fill(tail->tokens()); // a throw frees the block via ~p
        return p;
    }

    /** Drop this reference, leaving the empty prompt; a block is freed
     *  with its last reference. */
    void reset() noexcept { block_.reset(); }

    size_t
    size() const noexcept
    {
        const kv::TokenBlock *b = block_.get();
        if (!b)
            return 0;
        return b->size() + (b->head() ? b->head()->size() : 0);
    }
    bool empty() const noexcept { return !block_; }
    /** True when the prompt is a shared head plus its own tail. */
    bool
    hasHead() const noexcept
    {
        return block_ && block_.get()->head() != nullptr;
    }

    /** The read-only view the prefix tree and the router take: the
     *  head (if any) and the tail, each with its owning block. */
    kv::TokenSpan
    span() const noexcept
    {
        const kv::TokenBlock *b = block_.get();
        if (!b)
            return {};
        const kv::TokenBlock *h = b->head();
        const kv::TokenPiece own{b->tokens(), b->size(), b};
        if (!h)
            return {own, {}};
        return {kv::TokenPiece{h->tokens(), h->size(), h}, own};
    }
    operator kv::TokenSpan() const noexcept { return span(); }

    int32_t operator[](size_t i) const noexcept { return span()[i]; }
    kv::TokenSpan::iterator begin() const { return span().begin(); }
    kv::TokenSpan::iterator end() const { return span().end(); }

    /** Content equality: same length and same token ids, however the
     *  two are split into head and tail. */
    friend bool operator==(const PromptTokens &a, const PromptTokens &b);

  private:
    /** The block of the prompt's own tokens; its header names the
     *  head. */
    kv::BlockRef block_;
};

} // namespace serving
} // namespace specontext
