// Allocation counting for the traced run.
//
// The traced binary links alloc_hook.cpp, which replaces the global
// operator new with one that bumps a per-thread counter (single writer,
// no read-modify-write, so worker threads never contend). The timed
// binary links alloc_none.cpp instead and has no hook at all.
#pragma once

#include <cstdint>

namespace rivbench {

// True only in the binary that replaces operator new.
bool alloc_hook_installed();

// Allocations made by the calling thread so far.
std::uint64_t thread_allocs();

// Allocations made by every thread so far: the per-thread counters
// folded together. Exact once the other threads are idle; the workloads
// fold them when their passes end (bench.allocs_per_op).
std::uint64_t total_allocs();

}  // namespace rivbench
