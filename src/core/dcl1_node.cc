#include "core/dcl1_node.hh"

#include "check/check.hh"
#include "common/log.hh"

namespace dcl1::core
{

DcL1Node::DcL1Node(const mem::CacheBankParams &cache_params,
                   NodeId node_id, std::uint32_t queue_cap,
                   mem::CacheListener *listener, bool full_line_replies)
    : nodeId_(node_id), fullLineReplies_(full_line_replies),
      q1_(queue_cap), q2_(queue_cap), q3_(queue_cap),
      q4_(queue_cap), statGroup_("node" + std::to_string(node_id))
{
    mem::CacheBankParams cp = cache_params;
    cp.name = "dcl1";
    cache_ = std::make_unique<mem::CacheBank>(cp, node_id, listener);
    statGroup_.addChild(&cache_->statGroup());
    statGroup_.addScalar("bypass_requests", &bypasses_);
    statGroup_.addScalar("q1_stalls", &q1Stalls_);
}

void
DcL1Node::pushFromCore(mem::MemRequestPtr req, Cycle now)
{
    if (!q1_.canPush())
        panic("node %u: Q1 overflow", nodeId_);
    // Time queued in Q1 counts against the DC-L1 cache.
    mem::handoff(*req, stats::Custody::Cache, now);
    q1_.push(std::move(req));
}

void
DcL1Node::pushFromMem(mem::MemRequestPtr reply, Cycle now)
{
    if (!q4_.canPush())
        panic("node %u: Q4 overflow", nodeId_);
    // Time queued in Q4 (and the fill itself) is cache time.
    mem::handoff(*reply, stats::Custody::Cache, now);
    q4_.push(std::move(reply));
}

void
DcL1Node::tick(Cycle now)
{
    DCL1_ASSERT(now >= lastTick_,
                "node %u: clock ran backwards (%llu after %llu)",
                nodeId_, static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(lastTick_));
    DCL1_CHECK_ONLY(lastTick_ = now);
    // Q4: replies from L2/memory. Non-L1 replies bypass to Q2; L1
    // replies (read fills, write ACKs) go through the cache, which
    // fans completed targets into its completion queue.
    if (!q4_.empty()) {
        mem::MemRequestPtr &head = q4_.front();
        if (head->usesL1()) {
            cache_->fill(q4_.pop(), now);
        } else if (q2_.canPush()) {
            q2_.push(q4_.pop());
        }
    }

    // Q1: requests from cores. Non-L1 requests and atomics bypass the
    // DC-L1$ (Q1 -> Q3); L1 requests access the cache.
    if (!q1_.empty()) {
        mem::MemRequestPtr &head = q1_.front();
        if (!head->usesL1()) {
            if (q3_.canPush()) {
                ++bypasses_;
                q3_.push(q1_.pop());
            } else {
                ++q1Stalls_;
            }
        } else if (cache_->canAccept(now)) {
            // access() only consumes the request when it is not
            // blocked, so the head can be retried in place.
            mem::AccessOutcome outcome = cache_->access(q1_.front(), now);
            if (outcome != mem::AccessOutcome::Blocked)
                q1_.pop();
            else
                ++q1Stalls_;
        } else {
            ++q1Stalls_;
        }
    }

    // Cache completions -> Q2 (replies to cores carry only the
    // requested bytes).
    while (q2_.canPush()) {
        auto done = cache_->takeCompleted(now);
        if (!done)
            break;
        // The paper's Sec. III choice: replies carry only the bytes
        // the core asked for; the +FullLine ablation sends the line.
        (*done)->payloadBytes =
            (*done)->isWrite()
                ? 0
                : (fullLineReplies_ ? cache_->params().lineBytes
                                    : (*done)->bytes);
        q2_.push(std::move(*done));
    }

    // Cache misses / write-throughs -> Q3.
    while (q3_.canPush() && cache_->hasDownstream()) {
        auto req = cache_->takeDownstream();
        if (!req)
            break;
        q3_.push(std::move(*req));
    }
}

bool
DcL1Node::busy() const
{
    return !q1_.empty() || !q2_.empty() || !q3_.empty() || !q4_.empty() ||
           cache_->busy();
}

} // namespace dcl1::core
