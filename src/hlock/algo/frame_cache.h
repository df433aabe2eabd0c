// A per-thread cache of coroutine frames, for the repository's one coroutine
// task type, hsim::Task (and the engine's detached spawn wrapper).
//
// In the simulator each lock step and each simulated memory access is a
// coroutine; without a cache every one calls operator new and operator
// delete for its frame.  Native and model-checked lock cores are plain
// functions (two_pass.h) and allocate no frame at all.
// FrameCache keeps one free list per 64-byte size class on each thread: an
// n-byte frame takes a block of the next multiple of 64, and a freed block
// goes on the freeing thread's list for the next frame of its class.  Frames
// above kMaxBytes go straight to operator new.  Simulated tasks are lazy and
// finish in any order, so this is a set of free lists, not a LIFO arena.
//
// When a thread exits its lists go back to operator delete; frames freed on
// it after that (by other thread_local destructors) bypass the cache.  Under
// AddressSanitizer every frame passes straight through to operator
// new/delete, so a use-after-free of a frame is still reported.
//
// A promise type opts in by deriving from CachedFramePromise (below).

#ifndef HLOCK_ALGO_FRAME_CACHE_H_
#define HLOCK_ALGO_FRAME_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

namespace hlock::algo {

class FrameCache {
 public:
#ifdef __SANITIZE_ADDRESS__
  static constexpr bool kEnabled = false;
#else
  static constexpr bool kEnabled = true;
#endif
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kNumClasses = 16;
  static constexpr std::size_t kMaxBytes = kClassBytes * kNumClasses;

  // Size class of an n-byte frame (n <= kMaxBytes).
  static constexpr std::size_t ClassOf(std::size_t n) {
    return n == 0 ? 0 : (n - 1) / kClassBytes;
  }

  static void* Allocate(std::size_t n) {
    if (kEnabled && n <= kMaxBytes) {
      Node*& head = tls_.heads[ClassOf(n)];
      if (Node* node = head) {
        head = node->next;
        return node;
      }
      return ::operator new((ClassOf(n) + 1) * kClassBytes);
    }
    return ::operator new(n);
  }

  // `n` must be the size passed to Allocate.
  static void Free(void* p, std::size_t n) noexcept {
    if (kEnabled && n <= kMaxBytes) {
      if (tls_.state != State::kOpen) [[unlikely]] {
        if (tls_.state == State::kClosed) {
          ::operator delete(p);
          return;
        }
        Open();
      }
      Node*& head = tls_.heads[ClassOf(n)];
      head = new (p) Node{head};
      return;
    }
    ::operator delete(p);
  }

  // Frames held on the calling thread's lists (walks them; for tests).
  static std::size_t CachedOnThisThread() {
    std::size_t n = 0;
    for (const Node* head : tls_.heads) {
      for (const Node* node = head; node != nullptr; node = node->next) {
        ++n;
      }
    }
    return n;
  }

  // Frames returned to operator delete by exiting threads, process-wide.
  static std::uint64_t ReleasedAtThreadExit() {
    return released_at_exit_.load(std::memory_order_relaxed);
  }

 private:
  struct Node {
    Node* next;
  };

  enum class State : std::uint8_t { kUnarmed, kOpen, kClosed };

  // Trivially destructible, so it stays usable while other thread_local
  // destructors run; the Reaper below empties it and closes it.
  struct Lists {
    Node* heads[kNumClasses];
    State state;
  };

  // Returns the thread's lists to operator delete when the thread exits.
  struct Reaper {
    ~Reaper() {
      std::uint64_t released = 0;
      for (Node*& head : tls_.heads) {
        while (Node* node = head) {
          head = node->next;
          ::operator delete(node);
          ++released;
        }
      }
      tls_.state = State::kClosed;
      released_at_exit_.fetch_add(released, std::memory_order_relaxed);
    }
  };

  // Constructing the thread_local registers its destructor; done once per
  // thread, on the first frame the thread caches.
  static void Open() {
    static thread_local Reaper reaper;
    (void)reaper;
    tls_.state = State::kOpen;
  }

  static inline thread_local constinit Lists tls_{};
  static inline std::atomic<std::uint64_t> released_at_exit_{0};
};

// Base of a coroutine promise type whose frames come from FrameCache: the
// compiler looks up the frame's allocation functions in the promise type.
struct CachedFramePromise {
  static void* operator new(std::size_t n) { return FrameCache::Allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept { FrameCache::Free(p, n); }
};

}  // namespace hlock::algo

#endif  // HLOCK_ALGO_FRAME_CACHE_H_
