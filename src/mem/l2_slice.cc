#include "mem/l2_slice.hh"

#include "check/check.hh"
#include "common/log.hh"

namespace dcl1::mem
{

namespace
{

CacheBankParams
forceWriteBack(CacheBankParams params)
{
    params.policy = WritePolicy::WriteBack;
    return params;
}

} // anonymous namespace

L2Slice::L2Slice(CacheBankParams params, SliceId slice_id,
                 DramChannel *channel)
    : sliceId_(slice_id), bank_(forceWriteBack(std::move(params)), slice_id),
      channel_(channel), input_(16), replies_(16)
{
    if (!channel_)
        fatal("L2Slice %u: null memory channel", slice_id);
}

void
L2Slice::pushRequest(MemRequestPtr req, Cycle now)
{
    if (!input_.canPush())
        panic("L2Slice %u: push to full input queue", sliceId_);
    handoff(*req, stats::Custody::L2, now);
    input_.push(std::move(req));
}

void
L2Slice::tick(Cycle now)
{
    DCL1_ASSERT(now >= lastTick_,
                "L2Slice %u: clock ran backwards (%llu after %llu)",
                sliceId_, static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(lastTick_));
    DCL1_CHECK_ONLY(lastTick_ = now);

    // DRAM completions are routed to onDramReply() by the owner (the
    // channel is shared between slices; see GpuSystem::tickMemory).

    // 1. Serve the head of the input queue if the bank port is free.
    if (!input_.empty() && bank_.canAccept(now)) {
        MemRequestPtr &head = input_.front();
        AccessOutcome outcome = bank_.access(head, now);
        if (outcome != AccessOutcome::Blocked)
            input_.pop();
    }

    // 2. Drain bank completions into the reply queue. Upstream
    // writebacks (no requester) are absorbed here, not replied to.
    while (replies_.canPush()) {
        auto done = bank_.takeCompleted(now);
        if (!done)
            break;
        if ((*done)->core == invalidId) {
            // Upstream writeback absorbed by the L2: end of its life.
            retire(**done, now);
            continue;
        }
        replies_.push(std::move(*done));
    }

    // 3. Send bank misses/writebacks to the memory channel.
    while (bank_.hasDownstream() && channel_->canAccept()) {
        auto req = bank_.takeDownstream();
        if (!req)
            break;
        // Writes reaching DRAM are fire-and-forget writebacks; every
        // read-class request (including upstream fetches) replies.
        if (!(*req)->isWrite())
            ++dramInFlight_;
        channel_->push(std::move(*req), now);
    }
}

std::optional<MemRequestPtr>
L2Slice::takeReply()
{
    return replies_.tryPop();
}

void
L2Slice::onDramReply(MemRequestPtr reply, Cycle now)
{
    if (dramInFlight_ == 0)
        panic("L2Slice %u: DRAM reply underflow", sliceId_);
    --dramInFlight_;
    bank_.fill(std::move(reply), now);
}

bool
L2Slice::busy() const
{
    return !input_.empty() || !replies_.empty() || bank_.busy() ||
           dramInFlight_ != 0;
}

} // namespace dcl1::mem
