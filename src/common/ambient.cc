#include "common/ambient.h"

#include <iterator>
#include <utility>
#include <vector>

namespace diesel {
namespace {

thread_local std::vector<std::pair<const void*, uint64_t>> t_frames;

}  // namespace

void Ambient::Push(const void* domain, uint64_t value) {
  t_frames.emplace_back(domain, value);
}

void Ambient::Pop(const void* domain, uint64_t value) {
  for (auto it = t_frames.rbegin(); it != t_frames.rend(); ++it) {
    if (it->first == domain && it->second == value) {
      t_frames.erase(std::next(it).base());
      return;
    }
  }
}

uint64_t Ambient::Top(const void* domain, uint64_t fallback) {
  for (auto it = t_frames.rbegin(); it != t_frames.rend(); ++it) {
    if (it->first == domain) return it->second;
  }
  return fallback;
}

}  // namespace diesel
