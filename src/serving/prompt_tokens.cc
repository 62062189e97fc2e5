#include "serving/prompt_tokens.h"

#include <algorithm>
#include <cstring>

namespace specontext {
namespace serving {

PromptTokens::PromptTokens(const std::vector<int32_t> &tokens)
    : PromptTokens(filled(tokens.size(), [&](int32_t *out) {
          std::copy(tokens.begin(), tokens.end(), out);
      }))
{
}

PromptTokens::Block *
PromptTokens::allocate(size_t n)
{
    void *mem = ::operator new(sizeof(Block) + n * sizeof(int32_t));
    return new (mem) Block(n);
}

bool
operator==(const PromptTokens &a, const PromptTokens &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(int32_t)) == 0);
}

} // namespace serving
} // namespace specontext
