// Zero-filled memory from one anonymous mapping, for large blocks that must
// go back to the OS when freed.
//
// From malloc, a block of this size is mmapped by glibc too, but freeing it
// raises glibc's dynamic mmap threshold to its size, so later blocks of that
// size come from a thread's arena and stay resident after they are freed.
// A block from map_zeroed leaves that threshold alone and returns its pages
// on free, whichever thread maps or frees it.
#pragma once

#include <cstddef>
#include <memory>

namespace er {

struct Unmap {
  std::size_t bytes = 0;
  void operator()(void* p) const;
};

/// Owner of one anonymous mapping; null when empty.
using MappedBytes = std::unique_ptr<void, Unmap>;

/// Maps `bytes` zero-filled bytes (none when `bytes` is 0). Throws
/// std::bad_alloc when the mapping fails.
MappedBytes map_zeroed(std::size_t bytes);

}  // namespace er
