#ifndef DMRPC_TESTS_RESIDENT_MEMORY_H_
#define DMRPC_TESTS_RESIDENT_MEMORY_H_

#include <unistd.h>

#include <cstdint>
#include <fstream>

namespace dmrpc::testing_util {

/// Resident set size of this process in bytes, from /proc/self/statm
/// (second field, in pages). Returns -1 when it cannot be read.
inline int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return -1;
  return resident_pages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace dmrpc::testing_util

#endif  // DMRPC_TESTS_RESIDENT_MEMORY_H_
