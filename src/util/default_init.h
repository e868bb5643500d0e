// A vector whose resize leaves new elements of trivial types unwritten.
//
// std::vector::resize value-initialises what it adds, so growing an array
// of doubles or PODs zeroes every byte on the calling thread before any
// later pass writes the real values. For the whole-graph arrays that a
// parallel pass then overwrites in full (the FlatAdsSet arena, its HIP
// arrays, a v2 load's sections) that is one serial sweep over memory for
// nothing. DefaultInitAllocator default-initialises instead: trivial
// elements are left as the allocation found them, class types still run
// their default constructors, and every other construct call (copies,
// push_back, an explicit fill value) behaves as std::allocator's.
//
// The discipline that goes with it: whoever resizes such a vector writes
// every new element before anything reads it, or discards the vector.

#ifndef HIPADS_UTIL_DEFAULT_INIT_H_
#define HIPADS_UTIL_DEFAULT_INIT_H_

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace hipads {

template <typename T, typename A = std::allocator<T>>
class DefaultInitAllocator : public A {
  using Traits = std::allocator_traits<A>;

 public:
  template <typename U>
  struct rebind {
    using other =
        DefaultInitAllocator<U, typename Traits::template rebind_alloc<U>>;
  };

  using A::A;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    Traits::construct(static_cast<A&>(*this), p, std::forward<Args>(args)...);
  }
};

/// std::vector with DefaultInitAllocator.
template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace hipads

#endif  // HIPADS_UTIL_DEFAULT_INIT_H_
