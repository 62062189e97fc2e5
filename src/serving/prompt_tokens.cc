#include "serving/prompt_tokens.h"

#include <algorithm>

namespace specontext {
namespace serving {

PromptTokens::PromptTokens(const std::vector<int32_t> &tokens)
    : PromptTokens(filled(tokens.size(), [&](int32_t *out) {
          std::copy(tokens.begin(), tokens.end(), out);
      }))
{
}

bool
operator==(const PromptTokens &a, const PromptTokens &b)
{
    const size_t n = a.size();
    return n == b.size() &&
           kv::equalPrefix(a.span(), 0, b.span(), 0, n) == n;
}

} // namespace serving
} // namespace specontext
