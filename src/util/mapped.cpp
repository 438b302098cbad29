#include "util/mapped.hpp"

#include <new>

#include <sys/mman.h>

namespace er {

void Unmap::operator()(void* p) const { munmap(p, bytes); }

MappedBytes map_zeroed(std::size_t bytes) {
  if (bytes == 0) return MappedBytes(nullptr, Unmap{});
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return MappedBytes(p, Unmap{bytes});
}

}  // namespace er
