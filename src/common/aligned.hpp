// Cache-line aligned vectors for the buffers that the AVX2 kernels stream.
//
// malloc aligns to 16 bytes (an mmapped block sits at 16 mod 4096), so at
// half of all placements a 32-byte AVX2 load or store into a plain vector
// splits a cache line. The per-thread FFT scratch slots and the litho
// workspace hold their buffers here instead.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace ganopc {

/// Allocates every block on a 64-byte boundary.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) { return static_cast<T*>(::operator new(n * sizeof(T), kAlign)); }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, kAlign); }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// A std::vector whose data() is 64-byte aligned.
template <typename T>
using AlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

}  // namespace ganopc
