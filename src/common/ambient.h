// Thread-ambient context: a per-thread stack of (domain, value) frames that
// higher layers use to carry implicit context — e.g. the tracer's open-span
// stack — without plumbing it through every call signature.
//
// Frames are per OS thread: work handed to another thread starts with an
// empty stack. Domains are opaque pointers (typically the address of the
// owning object), so independent facilities never collide.
#pragma once

#include <cstdint>

namespace diesel {

class Ambient {
 public:
  /// Push a frame onto the calling thread's stack.
  static void Push(const void* domain, uint64_t value);

  /// Pop the innermost frame matching (domain, value). Tolerates (skips
  /// over) out-of-order frames rather than corrupting the stack.
  static void Pop(const void* domain, uint64_t value);

  /// Innermost value for `domain`, or `fallback` when none is open.
  static uint64_t Top(const void* domain, uint64_t fallback);
};

}  // namespace diesel
