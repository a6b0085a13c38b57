#include "alloc_count.hpp"

namespace rivbench {

bool alloc_hook_installed() { return false; }
std::uint64_t thread_allocs() { return 0; }
std::uint64_t total_allocs() { return 0; }

}  // namespace rivbench
