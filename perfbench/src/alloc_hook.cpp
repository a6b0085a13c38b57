// Counting operator new for the traced binary.
//
// Unlike a global atomic counter bumped with fetch_add (which bounces one
// cache line between every allocating thread and serializes them), each
// thread owns one slot of a static array and updates it with a plain
// load + store. Slots are claimed once per thread with a single
// fetch_add and never released, so total_allocs() can fold them at any
// time without allocating. Threads past kSlots share a fallback slot
// updated with fetch_add.
#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

namespace {

constexpr unsigned kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};

Slot g_slots[kSlots];
Slot g_shared;
std::atomic<unsigned> g_next{0};
thread_local Slot* t_slot = nullptr;

inline void count_one() {
  Slot* s = t_slot;
  if (s == nullptr) {
    const unsigned i = g_next.fetch_add(1, std::memory_order_relaxed);
    s = i < kSlots ? &g_slots[i] : &g_shared;
    t_slot = s;
  }
  if (s == &g_shared) {
    s->n.fetch_add(1, std::memory_order_relaxed);
  } else {
    s->n.store(s->n.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) {
  count_one();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t al) {
  count_one();
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, al);
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

namespace rivbench {

bool alloc_hook_installed() { return true; }

std::uint64_t thread_allocs() {
  const Slot* s = t_slot;
  return s == nullptr ? 0 : s->n.load(std::memory_order_relaxed);
}

std::uint64_t total_allocs() {
  std::uint64_t sum = g_shared.n.load(std::memory_order_relaxed);
  for (const Slot& s : g_slots) sum += s.n.load(std::memory_order_relaxed);
  return sum;
}

}  // namespace rivbench
