// Global operator new/delete shims that count heap allocations, the same
// measurement bench_micro_kernel makes, but thread-safe: the sweep workload
// allocates from two worker threads.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_counter.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* counted_alloc(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), n != 0 ? n : 1) !=
      0) {
    throw std::bad_alloc{};
  }
  return p;
}

void* counted_alloc_nothrow(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}

}  // namespace

namespace perfbench {

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
