// 32-byte-aligned storage for kernel operands. The AVX2 kernels read their
// inputs with aligned 256-bit loads whenever the base pointer allows it, so
// every word array that can reach a kernel — BitVector words and
// DominanceWindow columns — allocates through this allocator. That is the
// "alignment contract" of DESIGN.md §12: an AlignedVector's data() is
// always 32-byte aligned; kernels may rely on it for the base pointer
// (never for arbitrary interior offsets).
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace pcube::simd {

/// Minimal std::allocator replacement with a fixed alignment guarantee.
template <typename T, std::size_t Alignment = 32>
struct AlignedAllocator {
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two >= alignof(T)");
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// std::vector whose data() is 32-byte aligned.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 32>>;

}  // namespace pcube::simd
