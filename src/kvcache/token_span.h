/**
 * @file
 * Read-only view of a run of token ids in at most two pieces — a
 * shared head and a tail, as serving::PromptTokens stores a prompt —
 * each a pointer and a length plus the TokenBlock that owns it (null
 * for a borrowed piece, such as a std::vector's buffer). The prefix
 * tree and the router read prompts through it, so they accept a
 * std::vector<int32_t> and a serving::PromptTokens alike without
 * copying either.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "kvcache/token_block.h"

namespace specontext {
namespace kv {

/** One contiguous piece of a TokenSpan. */
struct TokenPiece
{
    const int32_t *data = nullptr;
    size_t size = 0;
    /** The block `data` points into, or null when the piece is
     *  borrowed (its owner outlives the view but guarantees nothing
     *  beyond that). */
    const TokenBlock *owner = nullptr;
};

/** Non-owning view of token ids; the owners must outlive it. */
class TokenSpan
{
  public:
    /** Random-access iterator over the tokens of both pieces. */
    class iterator
    {
      public:
        using iterator_category = std::random_access_iterator_tag;
        using value_type = int32_t;
        using difference_type = std::ptrdiff_t;
        using pointer = const int32_t *;
        using reference = const int32_t &;

        iterator() = default;
        iterator(const TokenSpan &s, size_t i)
            : head_(s.pieces_[0].data), tail_(s.pieces_[1].data),
              split_(s.pieces_[0].size), i_(i)
        {
        }

        reference
        operator*() const
        {
            return i_ < split_ ? head_[i_] : tail_[i_ - split_];
        }
        reference operator[](difference_type n) const { return *(*this + n); }

        iterator &operator++() { return *this += 1; }
        iterator &operator--() { return *this += -1; }
        iterator
        operator++(int)
        {
            iterator was = *this;
            ++*this;
            return was;
        }
        iterator
        operator--(int)
        {
            iterator was = *this;
            --*this;
            return was;
        }
        iterator &
        operator+=(difference_type n)
        {
            i_ = static_cast<size_t>(static_cast<difference_type>(i_) + n);
            return *this;
        }
        iterator &operator-=(difference_type n) { return *this += -n; }
        iterator
        operator+(difference_type n) const
        {
            return iterator(*this) += n;
        }
        iterator operator-(difference_type n) const { return *this + -n; }
        friend iterator
        operator+(difference_type n, const iterator &a)
        {
            return a + n;
        }
        difference_type
        operator-(const iterator &b) const
        {
            return static_cast<difference_type>(i_) -
                   static_cast<difference_type>(b.i_);
        }

        bool operator==(const iterator &b) const { return i_ == b.i_; }
        bool operator!=(const iterator &b) const { return i_ != b.i_; }
        bool operator<(const iterator &b) const { return i_ < b.i_; }
        bool operator>(const iterator &b) const { return i_ > b.i_; }
        bool operator<=(const iterator &b) const { return i_ <= b.i_; }
        bool operator>=(const iterator &b) const { return i_ >= b.i_; }

      private:
        const int32_t *head_ = nullptr;
        const int32_t *tail_ = nullptr;
        size_t split_ = 0;
        size_t i_ = 0;
    };

    constexpr TokenSpan() noexcept = default;
    /** One borrowed piece. */
    constexpr TokenSpan(const int32_t *data, size_t size) noexcept
        : pieces_{{data, size, nullptr}, {}}
    {
    }
    TokenSpan(const std::vector<int32_t> &tokens) noexcept
        : TokenSpan(tokens.data(), tokens.size())
    {
    }
    /** `head`'s tokens followed by `tail`'s (either may be empty). */
    constexpr TokenSpan(TokenPiece head, TokenPiece tail) noexcept
        : pieces_{head.size > 0 ? head : tail,
                  head.size > 0 ? tail : TokenPiece{}}
    {
    }

    size_t size() const noexcept { return pieces_[0].size + pieces_[1].size; }
    int32_t
    operator[](size_t i) const noexcept
    {
        return i < pieces_[0].size ? pieces_[0].data[i]
                                   : pieces_[1].data[i - pieces_[0].size];
    }

    /** Piece 0 (non-empty unless the span is) or piece 1 (empty unless
     *  the span has two pieces). */
    const TokenPiece &piece(size_t k) const noexcept { return pieces_[k]; }

    /** The contiguous run from token `i` (< size()) to the end of the
     *  piece holding it. */
    TokenPiece
    runAt(size_t i) const noexcept
    {
        const TokenPiece &p = i < pieces_[0].size ? pieces_[0] : pieces_[1];
        const size_t at = i < pieces_[0].size ? i : i - pieces_[0].size;
        return {p.data + at, p.size - at, p.owner};
    }

    iterator begin() const { return {*this, 0}; }
    iterator end() const { return {*this, size()}; }

  private:
    TokenPiece pieces_[2];
};

/**
 * Number of equal leading tokens of a[ai, ai+n) and b[bi, bi+n), read
 * in one pass over the runs the two spans split into: a run whose two
 * pointers are equal is equal without reading it (same memory, same
 * tokens); any other run is compared with memcmp in chunks, and the
 * first unequal chunk is scanned for its first unequal token. Tokens
 * read by content (whole chunks) are added to `*compared` when it is
 * non-null.
 */
inline size_t
equalPrefix(const TokenSpan &a, size_t ai, const TokenSpan &b, size_t bi,
            size_t n, int64_t *compared = nullptr)
{
    constexpr size_t kChunk = 64;
    size_t done = 0;
    while (done < n) {
        const TokenPiece ra = a.runAt(ai + done);
        const TokenPiece rb = b.runAt(bi + done);
        const size_t run = std::min({ra.size, rb.size, n - done});
        if (ra.data != rb.data) {
            for (size_t at = 0; at < run; at += kChunk) {
                const size_t k = std::min(kChunk, run - at);
                if (compared)
                    *compared += static_cast<int64_t>(k);
                const int32_t *x = ra.data + at;
                const int32_t *y = rb.data + at;
                if (std::memcmp(x, y, k * sizeof(int32_t)) != 0)
                    return done + at +
                           static_cast<size_t>(
                               std::mismatch(x, x + k, y).first - x);
            }
        }
        done += run;
    }
    return done;
}

} // namespace kv
} // namespace specontext
