// Heap accounting for tests that bound what a component keeps per row.
#pragma once

#include <cstddef>

#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

namespace dlc {

/// Heap bytes handed out and not yet freed (arena chunks plus mmap'd
/// blocks); 0 where the allocator does not report through mallinfo2.
inline std::size_t heap_in_use() {
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
#else
  return 0;
#endif
}

}  // namespace dlc
