#include "src/util/mapped_table.h"

#include <sys/mman.h>

#include <new>

namespace flashsim {

void* MapZeroedBytes(size_t bytes) {
  if (bytes == 0) {
    return nullptr;
  }
  void* table = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (table == MAP_FAILED) {
    throw std::bad_alloc();
  }
  return table;
}

void UnmapBytes(void* table, size_t bytes) {
  if (table != nullptr) {
    munmap(table, bytes);
  }
}

}  // namespace flashsim
