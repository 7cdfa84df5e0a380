#include "heap_count.hh"

#include <cstdlib>
#include <new>

namespace
{

// Plain thread_local PODs: no TLS constructor runs, so the counters
// are safe to touch from the first allocation of any thread.
thread_local std::uint64_t tAllocs = 0;
thread_local std::uint64_t tBytes = 0;

void *
countedAlloc(std::size_t n)
{
    ++tAllocs;
    tBytes += n;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t align)
{
    ++tAllocs;
    tBytes += n;
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc needs a size that is a multiple of the alignment.
    const std::size_t size = ((n ? n : 1) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, size))
        return p;
    throw std::bad_alloc();
}

} // anonymous namespace

namespace perfbench::heap
{

Counts
threadCounts()
{
    return Counts{tAllocs, tBytes};
}

} // namespace perfbench::heap

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
