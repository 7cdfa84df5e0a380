/**
 * @file
 * Exact heap-allocation counts for the benchmark binary.
 *
 * heap_count.cc replaces the global operator new/delete of this
 * executable only (the simulator libraries are unchanged) with
 * versions that bump per-thread counters before calling malloc. A
 * simulation runs on one thread, so the difference of two readings on
 * that thread is the exact number of allocations it made: a count that
 * repeats bit-for-bit across runs even when host time does not.
 */
#ifndef PERFBENCH_HEAP_COUNT_HH
#define PERFBENCH_HEAP_COUNT_HH

#include <cstdint>

namespace perfbench::heap
{

/** Running allocation totals of the calling thread. */
struct Counts
{
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
};

/** Allocations made by the calling thread since it started. */
Counts threadCounts();

} // namespace perfbench::heap

#endif // PERFBENCH_HEAP_COUNT_HH
