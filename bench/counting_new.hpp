// Counting replacement of the global allocation functions, for the perf
// binaries that report heap allocations per operation.
//
// Include from exactly one translation unit of a binary: the definitions
// below replace ::operator new/delete for the whole program.  Every form is
// replaced (plain, nothrow, aligned, array), so no allocation path escapes
// the count.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

// The replacements intentionally pair ::new with std::malloc/std::free;
// GCC's heuristic cannot see that they match.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace excovery::bench {

inline std::atomic<std::uint64_t> g_allocations{0};

/// Heap allocations made by the program so far.
inline std::uint64_t allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

inline void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(align, (size + align - 1) & ~(align - 1));
}

}  // namespace excovery::bench

void* operator new(std::size_t size) {
  if (void* p = excovery::bench::counted_alloc(size, 0)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = excovery::bench::counted_alloc(
          size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return excovery::bench::counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return excovery::bench::counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return excovery::bench::counted_alloc(size, 0);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return excovery::bench::counted_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
