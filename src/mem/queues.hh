/**
 * @file
 * Bounded FIFO used to model finite hardware queues with backpressure.
 */

#ifndef DCL1_MEM_QUEUES_HH
#define DCL1_MEM_QUEUES_HH

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "check/check.hh"
#include "common/log.hh"

namespace dcl1::mem
{

/**
 * A FIFO with a fixed capacity. Producers must check canPush() (or use
 * tryPush) so that full queues exert backpressure instead of growing.
 * Storage is a ring of `capacity` slots allocated at construction.
 */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity = 4)
        : capacity_(capacity), ring_(capacity)
    {
    }

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= capacity_; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }
    bool canPush() const { return !full(); }

    /** Push; caller must have checked canPush(). */
    void
    push(T v)
    {
        DCL1_ASSERT(!full(),
                    "BoundedQueue: push beyond capacity %zu", capacity_);
        append(std::move(v));
    }

    /** @return true and consume @p v if space was available. */
    bool
    tryPush(T &v)
    {
        if (full())
            return false;
        append(std::move(v));
        return true;
    }

    /** Front element; queue must be non-empty. */
    T &front() { return ring_[head_]; }
    const T &front() const { return ring_[head_]; }

    /** Pop and return the front element; queue must be non-empty. */
    T
    pop()
    {
        DCL1_ASSERT(size_ != 0, "BoundedQueue: pop from empty queue");
        return take();
    }

    /** Pop the front element if present. */
    std::optional<T>
    tryPop()
    {
        if (size_ == 0)
            return std::nullopt;
        return take();
    }

    void
    clear()
    {
        while (size_ != 0)
            take();
    }

  private:
    void
    append(T &&v)
    {
        std::size_t tail = head_ + size_;
        if (tail >= capacity_)
            tail -= capacity_;
        ring_[tail] = std::move(v);
        ++size_;
    }

    T
    take()
    {
        T v = std::move(ring_[head_]);
        if (++head_ == capacity_)
            head_ = 0;
        --size_;
        return v;
    }

    std::size_t capacity_;
    std::vector<T> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace dcl1::mem

#endif // DCL1_MEM_QUEUES_HH
