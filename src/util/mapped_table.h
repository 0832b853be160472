// Fixed-size arrays mapped straight from the OS, every byte zero.
//
// A fresh anonymous mapping reads as zeros without anything writing it,
// and a page of it becomes resident only when first written (a read maps
// the kernel's shared zero page, which costs no memory). A table whose
// empty state is all zero bytes therefore costs address space, not memory,
// until entries reach it: FlatHashMap's slots and LruBlockCache's flag
// bytes are such tables. LruBlockCache's index, whose empty marker is not
// zero, fills its tables itself; they are mapped so that a table replaced
// by a larger one goes back to the OS at once. Through malloc, glibc's
// dynamic mmap threshold rises past the first table freed, so later
// tables came from the arena and each replaced one stayed resident
// (DESIGN.md §8).
#ifndef FLASHSIM_SRC_UTIL_MAPPED_TABLE_H_
#define FLASHSIM_SRC_UTIL_MAPPED_TABLE_H_

#include <cstddef>
#include <type_traits>
#include <utility>

namespace flashsim {

// Maps `bytes` of zero-filled, read-write private memory; nullptr for 0
// bytes. Throws std::bad_alloc when the OS refuses the mapping.
void* MapZeroedBytes(size_t bytes);
// Returns a mapping from MapZeroedBytes (nullptr is a no-op).
void UnmapBytes(void* table, size_t bytes);

// `size` elements of T, zero-initialised by the mapping itself. Move-only;
// unmapped on destruction. T is stored as raw bytes, so it must be
// trivially copyable and destructible.
template <typename T>
class MappedTable {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);

 public:
  MappedTable() = default;
  explicit MappedTable(size_t size)
      : data_(static_cast<T*>(MapZeroedBytes(size * sizeof(T)))), size_(size) {}
  ~MappedTable() { UnmapBytes(data_, size_ * sizeof(T)); }

  MappedTable(MappedTable&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  MappedTable& operator=(MappedTable&& other) noexcept {
    if (this != &other) {
      UnmapBytes(data_, size_ * sizeof(T));
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  size_t size() const { return size_; }
  T& operator[](size_t i) const { return data_[i]; }
  T* begin() const { return data_; }
  T* end() const { return data_ + size_; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_UTIL_MAPPED_TABLE_H_
