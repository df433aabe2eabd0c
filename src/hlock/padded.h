// Cache-line padding utilities.  Locks and per-processor queue nodes must not
// share cache lines: the paper's second-order effects have a cache-coherent
// analogue (line ping-pong), and padding is the standard defence.

#ifndef HLOCK_PADDED_H_
#define HLOCK_PADDED_H_

#include <cstddef>
#include <utility>

namespace hlock {

inline constexpr std::size_t kCacheLineSize = 64;

// A T alone on its own cache line(s).
template <typename T>
struct alignas(kCacheLineSize) Padded {
  T value;

  template <typename... Args>
  explicit Padded(Args&&... args) : value(std::forward<Args>(args)...) {}
  Padded() = default;

  T* operator->() { return &value; }
  const T* operator->() const { return &value; }
  T& operator*() { return value; }
  const T& operator*() const { return value; }
};

}  // namespace hlock

#endif  // HLOCK_PADDED_H_
