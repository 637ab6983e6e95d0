#include "heap.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perfbench::heap {
namespace {

std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};
thread_local bool t_uncounted = false;

// Precedes every block. 16 bytes keeps malloc's alignment for the caller;
// over-aligned blocks put the header in the padding before the block.
struct Header {
  uint64_t size;
  uint32_t offset;  // distance from the malloc'd base to the user block
  uint32_t counted;
};
static_assert(sizeof(Header) == 16);

void RaisePeak(int64_t level) {
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (level > peak && !g_peak.compare_exchange_weak(
                             peak, level, std::memory_order_relaxed)) {
  }
}

void* Allocate(size_t size, size_t align) {
  size_t head = align > sizeof(Header) ? align : sizeof(Header);
  if (size > SIZE_MAX - head) return nullptr;
  void* base = nullptr;
  if (align > sizeof(Header)) {
    if (posix_memalign(&base, align, head + size) != 0) base = nullptr;
  } else {
    base = std::malloc(head + size);
  }
  if (base == nullptr) return nullptr;
  char* user = static_cast<char*>(base) + head;
  Header* header = reinterpret_cast<Header*>(user - sizeof(Header));
  header->size = size;
  header->offset = static_cast<uint32_t>(head);
  header->counted = t_uncounted ? 0 : 1;
  if (header->counted != 0) {
    RaisePeak(g_live.fetch_add(static_cast<int64_t>(size),
                               std::memory_order_relaxed) +
              static_cast<int64_t>(size));
  }
  return user;
}

void* AllocateOrThrow(size_t size, size_t align) {
  void* p = Allocate(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Release(void* p) {
  if (p == nullptr) return;
  char* user = static_cast<char*>(p);
  Header* header = reinterpret_cast<Header*>(user - sizeof(Header));
  if (header->counted != 0) {
    g_live.fetch_sub(static_cast<int64_t>(header->size),
                     std::memory_order_relaxed);
  }
  std::free(user - header->offset);
}

}  // namespace

int64_t LiveBytes() { return g_live.load(std::memory_order_relaxed); }
int64_t PeakBytes() { return g_peak.load(std::memory_order_relaxed); }

void ResetPeak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

HarnessScope::HarnessScope() : previous_(t_uncounted) { t_uncounted = true; }
HarnessScope::~HarnessScope() { t_uncounted = previous_; }

}  // namespace perfbench::heap

using perfbench::heap::AllocateOrThrow;

void* operator new(size_t n) { return AllocateOrThrow(n, 0); }
void* operator new[](size_t n) { return AllocateOrThrow(n, 0); }
void* operator new(size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<size_t>(a));
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return perfbench::heap::Allocate(n, 0);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return perfbench::heap::Allocate(n, 0);
}
void* operator new(size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return perfbench::heap::Allocate(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return perfbench::heap::Allocate(n, static_cast<size_t>(a));
}

void operator delete(void* p) noexcept { perfbench::heap::Release(p); }
void operator delete[](void* p) noexcept { perfbench::heap::Release(p); }
void operator delete(void* p, size_t) noexcept { perfbench::heap::Release(p); }
void operator delete[](void* p, size_t) noexcept {
  perfbench::heap::Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  perfbench::heap::Release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  perfbench::heap::Release(p);
}
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  perfbench::heap::Release(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  perfbench::heap::Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::heap::Release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::heap::Release(p);
}
