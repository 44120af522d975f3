#include "counting_new.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(bytes == 0 ? 1 : bytes);
}

void* counted_aligned_alloc(std::size_t bytes, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (bytes + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

}  // namespace

namespace roclk::testing {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace roclk::testing

void* operator new(std::size_t bytes) {
  if (void* p = counted_alloc(bytes)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t bytes) {
  if (void* p = counted_alloc(bytes)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  return counted_alloc(bytes);
}
void* operator new[](std::size_t bytes, const std::nothrow_t&) noexcept {
  return counted_alloc(bytes);
}
void* operator new(std::size_t bytes, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(bytes, align)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(bytes, align)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t bytes, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(bytes, align);
}
void* operator new[](std::size_t bytes, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(bytes, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
