#include "common/retry.h"

#include "common/hash.h"

namespace diesel {

Nanos RetryPolicy::BackoffBefore(uint32_t attempt) const {
  double base = static_cast<double>(initial_backoff);
  for (uint32_t i = 1; i < attempt; ++i) {
    base *= kBackoffMultiplier;
    if (base >= static_cast<double>(kMaxBackoff)) break;
  }
  base = std::min(base, static_cast<double>(kMaxBackoff));
  // Deterministic jitter in [1 - kJitterFrac, 1 + kJitterFrac].
  uint64_t h = Mix64(kJitterSeed ^ (0x517CC1B727220A95ULL * (attempt + 1)));
  double unit = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  double factor = 1.0 + kJitterFrac * (2.0 * unit - 1.0);
  return static_cast<Nanos>(base * factor);
}

}  // namespace diesel
