/**
 * @file
 * Immutable, reference-counted token storage shared by prompts and the
 * prefix cache.
 *
 * A TokenBlock is one heap allocation, [refcount | size | head |
 * tokens]. Its tokens are written exactly once, by whoever created it,
 * before it is shared; nothing writes them afterwards and the block
 * is freed with its last reference. So a pointer into a live block
 * names the same tokens for as long as a reference is held: the
 * prefix tree keeps a reference on every block its edges view, which
 * is what lets it treat equal addresses as equal tokens.
 *
 * A block may name a shared *head* block whose tokens logically come
 * before its own (serving::PromptTokens: a family prefix stored once
 * plus each prompt's own tail). The block holds one reference on its
 * head. A head never has a head of its own, so a prompt is at most
 * two pieces.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <utility>

namespace specontext {
namespace kv {

/** One immutable refcounted run of token ids; see the file comment. */
class TokenBlock
{
  public:
    /**
     * A new block of `n` uninitialized tokens holding one reference
     * (to be adopted by a BlockRef). A non-null `head` gains one
     * reference, dropped when this block is freed.
     * @throws std::invalid_argument when `head` has a head itself.
     */
    static TokenBlock *
    create(size_t n, const TokenBlock *head = nullptr)
    {
        if (head && head->head_)
            throw std::invalid_argument(
                "TokenBlock: a head block cannot have a head");
        void *mem = ::operator new(sizeof(TokenBlock) + n * sizeof(int32_t));
        if (head)
            head->retain();
        return new (mem) TokenBlock(n, head);
    }

    void
    retain() const noexcept
    {
        refs_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Drop one reference; the last one frees the block (and drops its
     *  reference on the head). */
    void
    release() const noexcept
    {
        if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            const TokenBlock *head = head_;
            this->~TokenBlock();
            ::operator delete(const_cast<TokenBlock *>(this));
            if (head)
                head->release();
        }
    }

    /** Tokens stored in this block (its head's not included). */
    size_t size() const noexcept { return size_; }
    const TokenBlock *head() const noexcept { return head_; }

    const int32_t *
    tokens() const noexcept
    {
        return reinterpret_cast<const int32_t *>(this + 1);
    }
    /** Writable only by the creator, before the block is shared. */
    int32_t *
    tokens() noexcept
    {
        return reinterpret_cast<int32_t *>(this + 1);
    }

  private:
    TokenBlock(size_t n, const TokenBlock *head) : size_(n), head_(head) {}
    ~TokenBlock() = default;

    mutable std::atomic<int64_t> refs_{1};
    size_t size_;
    const TokenBlock *head_;
};
static_assert(sizeof(TokenBlock) % alignof(int32_t) == 0,
              "tokens must start aligned right after the header");

/** Owning reference to a TokenBlock (null when empty). */
class BlockRef
{
  public:
    BlockRef() noexcept = default;

    /** Take over the reference `block` already holds (from create()). */
    static BlockRef
    adopt(const TokenBlock *block) noexcept
    {
        BlockRef r;
        r.block_ = block;
        return r;
    }

    /** A new reference on `block` (null allowed). */
    static BlockRef
    share(const TokenBlock *block) noexcept
    {
        if (block)
            block->retain();
        return adopt(block);
    }

    BlockRef(const BlockRef &other) noexcept : BlockRef(share(other.block_))
    {
    }
    BlockRef(BlockRef &&other) noexcept
        : block_(std::exchange(other.block_, nullptr))
    {
    }
    BlockRef &
    operator=(BlockRef other) noexcept
    {
        std::swap(block_, other.block_);
        return *this;
    }
    ~BlockRef() { reset(); }

    void
    reset() noexcept
    {
        if (block_)
            block_->release();
        block_ = nullptr;
    }

    const TokenBlock *get() const noexcept { return block_; }
    explicit operator bool() const noexcept { return block_ != nullptr; }

  private:
    const TokenBlock *block_ = nullptr;
};

} // namespace kv
} // namespace specontext
