/// \file small_vector.h
/// A vector with inline storage for the first N elements, for the
/// simulator's many tiny per-item lists (copy-table holder lists, lock
/// holder sets) where the common population is 1-4 entries and a heap
/// allocation per item dominates the operation it supports.
///
/// Restricted to trivially copyable element types: growth and erasure are
/// memmove/memcpy, destruction is free, and the type stays simple enough to
/// audit. Iteration order is insertion order (positional), so determinism
/// review is the same as for std::vector.

#ifndef PSOODB_UTIL_SMALL_VECTOR_H_
#define PSOODB_UTIL_SMALL_VECTOR_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>

#include "util/check.h"

namespace psoodb::util {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector is restricted to trivially copyable types");
  static_assert(N > 0);

 public:
  SmallVector() = default;
  ~SmallVector() {
    if (data_ != Inline()) delete[] reinterpret_cast<unsigned char*>(data_);
  }
  SmallVector(const SmallVector& other) { Assign(other); }
  SmallVector& operator=(const SmallVector& other) {
    if (this == &other) return *this;
    if (other.size_ <= capacity_) {
      // Fits the current buffer (inline or heap): copy in place.
      size_ = other.size_;
      std::memcpy(static_cast<void*>(data_),
                  static_cast<const void*>(other.data_), size_ * sizeof(T));
      return *this;
    }
    if (data_ != Inline()) delete[] reinterpret_cast<unsigned char*>(data_);
    Assign(other);
    return *this;
  }
  SmallVector(SmallVector&& other) noexcept { Steal(other); }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      if (data_ != Inline()) delete[] reinterpret_cast<unsigned char*>(data_);
      Steal(other);
    }
    return *this;
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void push_back(const T& v) {
    if (size_ == capacity_) Grow();
    data_[size_++] = v;
  }

  void pop_back() {
    PSOODB_DCHECK(size_ > 0, "SmallVector::pop_back on empty");
    --size_;
  }

  /// Resizes to `n` elements; elements past the old size are uninitialized.
  void resize(std::size_t n) {
    while (capacity_ < n) Grow();
    size_ = n;
  }

  /// Inserts `v` before position `pos` (shifting the tail up).
  void insert(std::size_t pos, const T& v) {
    PSOODB_DCHECK(pos <= size_, "SmallVector::insert out of range");
    if (size_ == capacity_) Grow();
    std::memmove(static_cast<void*>(data_ + pos + 1),
                 static_cast<const void*>(data_ + pos),
                 (size_ - pos) * sizeof(T));
    data_[pos] = v;
    ++size_;
  }

  /// Erases the element at position `pos` (shifting the tail down).
  void erase(std::size_t pos) {
    PSOODB_DCHECK(pos < size_, "SmallVector::erase out of range");
    std::memmove(static_cast<void*>(data_ + pos),
                 static_cast<const void*>(data_ + pos + 1),
                 (size_ - pos - 1) * sizeof(T));
    --size_;
  }

  void clear() { size_ = 0; }

 private:
  T* Inline() { return reinterpret_cast<T*>(inline_); }

  void Grow() {
    const std::size_t cap = capacity_ * 2;
    T* grown = reinterpret_cast<T*>(new unsigned char[cap * sizeof(T)]);
    std::memcpy(static_cast<void*>(grown), static_cast<const void*>(data_),
                size_ * sizeof(T));
    if (data_ != Inline()) delete[] reinterpret_cast<unsigned char*>(data_);
    data_ = grown;
    capacity_ = cap;
  }

  /// Copies `other` into fresh storage; the current buffer must already be
  /// released (or be the inline one).
  void Assign(const SmallVector& other) {
    if (other.size_ > N) {
      data_ = reinterpret_cast<T*>(new unsigned char[other.size_ * sizeof(T)]);
      capacity_ = other.size_;
    } else {
      data_ = Inline();
      capacity_ = N;
    }
    size_ = other.size_;
    std::memcpy(static_cast<void*>(data_),
                static_cast<const void*>(other.data_), size_ * sizeof(T));
  }

  /// Takes other's heap buffer, or copies its inline elements; leaves other
  /// empty and inline either way.
  void Steal(SmallVector& other) {
    if (other.data_ != other.Inline()) {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.Inline();
      other.capacity_ = N;
      other.size_ = 0;
    } else {
      data_ = Inline();
      capacity_ = N;
      size_ = other.size_;
      std::memcpy(static_cast<void*>(data_),
                  static_cast<const void*>(other.data_), size_ * sizeof(T));
      other.size_ = 0;
    }
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* data_ = Inline();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace psoodb::util

#endif  // PSOODB_UTIL_SMALL_VECTOR_H_
