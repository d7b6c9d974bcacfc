// Replaces the test binary's global operator new (see alloc_count.hpp). Kept
// in its own translation unit: where these definitions are visible, GCC
// inlines them into new-expressions and reports the malloc/free pairing as
// a mismatched new/delete.
#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t* g_count = nullptr;
}  // namespace

void* operator new(std::size_t n) {
  if (g_count) ++*g_count;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms too (std::stable_sort's buffer): every plain delete
// below frees with free(), so every plain new must come from malloc().
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (g_count) ++*g_count;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace rp::testing {

AllocCount::AllocCount() : outer_(g_count) { g_count = &n_; }
AllocCount::~AllocCount() { g_count = outer_; }

}  // namespace rp::testing
