#include "noc/crossbar.hh"

#include <algorithm>

#include "check/check.hh"
#include "common/log.hh"
#include "prof/prof.hh"

namespace dcl1::noc
{

namespace
{

/**
 * First set bit of @p m at or after bit @p from, wrapping around to
 * bit 0; @p m must be non-empty and @p from < 128.
 */
std::uint32_t
firstSetFrom(const std::array<std::uint64_t, 2> &m, std::uint32_t from)
{
    const std::uint32_t w = from >> 6;
    if (const std::uint64_t at = m[w] & (~0ull << (from & 63)))
        return w * 64 + std::uint32_t(__builtin_ctzll(at));
    // Nothing at or after @p from in its word: take the next word's
    // lowest bit, wrapping from word 1 back to word 0.
    if (w == 0)
        return m[1] ? 64 + std::uint32_t(__builtin_ctzll(m[1]))
                    : std::uint32_t(__builtin_ctzll(m[0]));
    return m[0] ? std::uint32_t(__builtin_ctzll(m[0]))
                : 64 + std::uint32_t(__builtin_ctzll(m[1]));
}

} // anonymous namespace

Crossbar::Crossbar(const XbarParams &params)
    : params_(params), statGroup_(params.name)
{
    if (params.numInputs == 0 || params.numInputs > 128 ||
        params.numOutputs == 0 || params.numOutputs > 128) {
        fatal("Crossbar %s: ports must be 1..128 (got %ux%u)",
              params.name.c_str(), params.numInputs, params.numOutputs);
    }
    if (params.clockRatio <= 0.0 || params.clockRatio > 4.0)
        fatal("Crossbar %s: bad clock ratio %f", params.name.c_str(),
              params.clockRatio);

    const std::uint32_t icap = params.inputQueueCap;
    slots_.resize(std::size_t(params.numInputs) * icap);
    slotNext_.resize(slots_.size());
    freeSlot_.assign(params.numInputs, kNoSlot);
    for (std::uint32_t in = 0; in < params.numInputs; ++in) {
        for (std::uint32_t k = icap; k-- > 0;) {
            const std::uint32_t s = in * icap + k;
            slotNext_[s] = freeSlot_[in];
            freeSlot_[in] = s;
        }
    }
    voqHead_.assign(std::size_t(params.numInputs) * params.numOutputs,
                    kNoSlot);
    voqTail_.assign(voqHead_.size(), kNoSlot);

    inputOcc_.assign(params.numInputs, 0);
    reqBits_.assign(params.numOutputs, {0, 0});
    grants_.assign(params.numInputs, {0, 0});
    grantPtr_.assign(params.numOutputs, 0);
    acceptPtr_.assign(params.numInputs, 0);
    inputFreeAt_.assign(params.numInputs, 0);
    outputFreeAt_.assign(params.numOutputs, 0);
    outReserved_.assign(params.numOutputs, 0);
    outSlots_.resize(std::size_t(params.numOutputs) *
                     params.outputQueueCap);
    outReady_.assign(outSlots_.size(), 0);
    outHead_.assign(params.numOutputs, 0);
    outSize_.assign(params.numOutputs, 0);
    outputFlits_.assign(params.numOutputs, 0);

    statGroup_.addScalar("packets", &delivered_);
    statGroup_.addScalar("flits", &flits_);
    statGroup_.addScalar("latency_sum", &latencySum_);
}

void
Crossbar::inject(Packet pkt)
{
    if (pkt.src >= params_.numInputs || pkt.dst >= params_.numOutputs)
        panic("Crossbar %s: inject %u->%u out of range (%ux%u)",
              params_.name.c_str(), pkt.src, pkt.dst, params_.numInputs,
              params_.numOutputs);
    if (!canInject(pkt.src))
        panic("Crossbar %s: inject to full input %u",
              params_.name.c_str(), pkt.src);
    if (pkt.flits == 0)
        panic("Crossbar %s: zero-flit packet", params_.name.c_str());

    pkt.injectedAt = nocCycle_;
    DCL1_CHECK_ONLY({
        ++chkInjectedPkts_;
        chkInjectedFlits_ += pkt.flits;
    });
    const std::uint32_t in = pkt.src;
    const std::uint32_t out = pkt.dst;

    // The credit check above guarantees a free slot in the pool.
    const std::uint32_t s = freeSlot_[in];
    freeSlot_[in] = slotNext_[s];
    slotNext_[s] = kNoSlot;
    slots_[s] = std::move(pkt);

    const std::size_t v = voqIndex(in, out);
    if (voqHead_[v] == kNoSlot) {
        voqHead_[v] = s;
        reqBits_[out][in / 64] |= 1ull << (in % 64);
    } else {
        slotNext_[voqTail_[v]] = s;
    }
    voqTail_[v] = s;
    ++inputOcc_[in];
    ++pending_;
}

Packet
Crossbar::popDelivered(std::uint32_t output)
{
    Packet pkt = std::move(outSlots_[outSlot(output, 0)]);
    if (++outHead_[output] == params_.outputQueueCap)
        outHead_[output] = 0;
    --outSize_[output];
    --pending_;
    DCL1_CHECK_ONLY(++chkEjectedPkts_);
    return pkt;
}

void
Crossbar::tick()
{
    if (prof::active() && !busy())
        DCL1_PROF_COUNT(QuiescentXbar, 1);
    phase_ += params_.clockRatio;
    while (phase_ >= 1.0) {
        phase_ -= 1.0;
        nocTick();
    }
}

void
Crossbar::nocTick()
{
    ++nocCycle_;

    // Land packets that finished switch traversal + pipeline: the
    // oldest in-transit packet of each output with reservations.
    for (std::uint32_t w = 0; w < 2; ++w) {
        for (std::uint64_t bits = inFlight_[w]; bits; bits &= bits - 1) {
            const std::uint32_t out =
                w * 64 + std::uint32_t(__builtin_ctzll(bits));
            while (outReserved_[out] != 0) {
                const std::size_t slot = outSlot(out, outSize_[out]);
                if (outReady_[slot] > nocCycle_)
                    break;
                const Packet &pkt = outSlots_[slot];
                ++outSize_[out];
                --outReserved_[out];
                ++delivered_;
                flits_ += pkt.flits;
                outputFlits_[out] += pkt.flits;
                latencySum_ += nocCycle_ - pkt.injectedAt;
                DCL1_CHECK_ONLY({
                    ++chkDeliveredPkts_;
                    chkDeliveredFlits_ += pkt.flits;
                });
            }
            if (outReserved_[out] == 0)
                inFlight_[w] &= ~(1ull << (out % 64));
        }
    }

    allocate();

#if DCL1_CHECK_ENABLED
    // Full-state audit is O(inputs * outputs); amortize it.
    if ((nocCycle_ & 63) == 0)
        checkInvariants();
#endif
}

void
Crossbar::allocate()
{
    // --- single-iteration iSLIP on port masks ---
    // Counters and the cycle live in locals: the mask stores below
    // could otherwise alias them and force a reload per port.
    const Cycle now = nocCycle_;
    PortMask in_free{0, 0};
    for (std::uint32_t in = 0; in < params_.numInputs; ++in)
        in_free[in / 64] |= std::uint64_t(inputFreeAt_[in] <= now)
                            << (in % 64);

    // Grant phase: each free output grants one requesting, free input,
    // the first at or after its grant pointer.
    std::uint64_t out_busy = 0, outq_full = 0, no_request = 0;
    std::uint64_t no_free_input = 0;
    PortMask granted{0, 0}; // inputs holding at least one grant
    for (std::uint32_t out = 0; out < params_.numOutputs; ++out) {
        if (outputFreeAt_[out] > now) {
            ++out_busy;
            continue;
        }
        // Backpressure: don't start a transfer that could overflow the
        // output queue (in-transit packets hold their slots already).
        if (outSize_[out] + outReserved_[out] >= params_.outputQueueCap) {
            ++outq_full;
            continue;
        }
        const PortMask &req = reqBits_[out];
        const PortMask cand{req[0] & in_free[0], req[1] & in_free[1]};
        if (!(cand[0] | cand[1])) {
            if (req[0] | req[1])
                ++no_free_input;
            else
                ++no_request;
            continue;
        }
        const std::uint32_t in = firstSetFrom(cand, grantPtr_[out]);
        grants_[in][out / 64] |= 1ull << (out % 64);
        granted[in / 64] |= 1ull << (in % 64);
    }
    dbgOutBusy += out_busy;
    dbgOutQFull += outq_full;
    dbgNoRequest += no_request;
    dbgNoFreeInput += no_free_input;
    dbgGrants += params_.numOutputs - out_busy - outq_full - no_request -
                 no_free_input;

    // Accept phase: granted inputs, ascending, each accept the first
    // granting output at or after its accept pointer.
    for (std::uint32_t w = 0; w < 2; ++w) {
        for (std::uint64_t bits = granted[w]; bits; bits &= bits - 1) {
            const std::uint32_t in =
                w * 64 + std::uint32_t(__builtin_ctzll(bits));
            PortMask &g = grants_[in];
            const std::uint32_t out = firstSetFrom(g, acceptPtr_[in]);
            g = {0, 0};
            startTransfer(in, out);
        }
    }
}

void
Crossbar::startTransfer(std::uint32_t in, std::uint32_t out)
{
    // Move the VOQ head straight into the output ring, behind the
    // packets already delivered or reserved there; backpressure left
    // room for it.
    const std::size_t v = voqIndex(in, out);
    const std::uint32_t s = voqHead_[v];
    const std::size_t slot =
        outSlot(out, outSize_[out] + outReserved_[out]);
    outSlots_[slot] = std::move(slots_[s]);
    voqHead_[v] = slotNext_[s];
    if (voqHead_[v] == kNoSlot)
        reqBits_[out][in / 64] &= ~(1ull << (in % 64));
    slotNext_[s] = freeSlot_[in];
    freeSlot_[in] = s;
    --inputOcc_[in];

    const Cycle busy = outSlots_[slot].flits;
    inputFreeAt_[in] = nocCycle_ + busy;
    outputFreeAt_[out] = nocCycle_ + busy;
    outReady_[slot] = nocCycle_ + busy + params_.routerLatency;
    ++outReserved_[out];
    inFlight_[out / 64] |= 1ull << (out % 64);

    ++dbgAccepts;

    // iSLIP pointer updates on successful match.
    grantPtr_[out] = (in + 1) % params_.numInputs;
    acceptPtr_[in] = (out + 1) % params_.numOutputs;
}

std::array<std::uint64_t, 4>
Crossbar::dbgVoqState() const
{
    std::uint64_t sum_voq = 0, sum_occ = 0, nonempty = 0, bits_set = 0;
    for (std::size_t v = 0; v < voqHead_.size(); ++v) {
        if (voqHead_[v] != kNoSlot)
            ++nonempty;
        for (std::uint32_t s = voqHead_[v]; s != kNoSlot; s = slotNext_[s])
            ++sum_voq;
    }
    for (auto occ : inputOcc_)
        sum_occ += occ;
    for (const auto &b : reqBits_)
        bits_set += __builtin_popcountll(b[0]) + __builtin_popcountll(b[1]);
    return {sum_voq, sum_occ, nonempty, bits_set};
}

void
Crossbar::checkInvariants() const
{
#if DCL1_CHECK_ENABLED
    const std::uint32_t icap = params_.inputQueueCap;
    auto in_pool = [&](std::uint32_t in, std::uint32_t s) {
        return s >= in * icap && s < (in + 1) * icap;
    };

    // Per-input credit accounting vs. actual VOQ occupancy, request
    // bits exactly mirroring VOQ non-emptiness, and every pool slot
    // either queued in one of the input's VOQs or on its free list.
    std::uint64_t voq_flits = 0;
    std::uint64_t voq_pkts = 0;
    for (std::uint32_t in = 0; in < params_.numInputs; ++in) {
        std::size_t occ = 0;
        for (std::uint32_t out = 0; out < params_.numOutputs; ++out) {
            const std::size_t v = voqIndex(in, out);
            std::size_t len = 0;
            std::uint32_t last = kNoSlot;
            for (std::uint32_t s = voqHead_[v]; s != kNoSlot;
                 s = slotNext_[s]) {
                if (!in_pool(in, s) || len >= icap)
                    panic("Crossbar %s: VOQ %u->%u links slot %u "
                          "outside input %u's pool or loops",
                          params_.name.c_str(), in, out, s, in);
                const Packet &p = slots_[s];
                if (p.src != in || p.dst != out)
                    panic("Crossbar %s: VOQ %u->%u holds a %u->%u "
                          "packet",
                          params_.name.c_str(), in, out, p.src, p.dst);
                voq_flits += p.flits;
                last = s;
                ++len;
            }
            if (len && last != voqTail_[v])
                panic("Crossbar %s: VOQ %u->%u tail %u is not its last "
                      "slot %u",
                      params_.name.c_str(), in, out, voqTail_[v], last);
            occ += len;
            const bool bit =
                (reqBits_[out][in / 64] >> (in % 64)) & 1ull;
            if (bit != (len != 0))
                panic("Crossbar %s: request bit %u->%u is %d but VOQ "
                      "holds %zu packets",
                      params_.name.c_str(), in, out, int(bit), len);
        }
        if (occ != inputOcc_[in])
            panic("Crossbar %s: input %u credit count %u != VOQ "
                  "occupancy %zu",
                  params_.name.c_str(), in, inputOcc_[in], occ);
        if (occ > icap)
            panic("Crossbar %s: input %u over capacity (%zu > %u)",
                  params_.name.c_str(), in, occ, icap);
        std::size_t free_len = 0;
        for (std::uint32_t s = freeSlot_[in]; s != kNoSlot;
             s = slotNext_[s]) {
            if (!in_pool(in, s) || free_len >= icap)
                panic("Crossbar %s: input %u free list links slot %u "
                      "outside its pool or loops",
                      params_.name.c_str(), in, s);
            ++free_len;
        }
        if (occ + free_len != icap)
            panic("Crossbar %s: input %u pool leaks slots (%zu queued "
                  "+ %zu free != %u)",
                  params_.name.c_str(), in, occ, free_len, icap);
        if (grants_[in][0] | grants_[in][1])
            panic("Crossbar %s: input %u holds a stale grant",
                  params_.name.c_str(), in);
        voq_pkts += occ;
    }

    // Output rings: delivered plus reserved (in-transit) packets stay
    // within capacity, every packet is for its output, the in-flight
    // mask mirrors the reservations, and in-transit packets land in
    // ring order, at most one per output per NoC cycle.
    std::uint64_t transit_pkts = 0;
    std::uint64_t transit_flits = 0;
    std::uint64_t outq_pkts = 0;
    for (std::uint32_t out = 0; out < params_.numOutputs; ++out) {
        const std::uint32_t size = outSize_[out];
        const std::uint32_t reserved = outReserved_[out];
        if (size + reserved > params_.outputQueueCap)
            panic("Crossbar %s: output %u overcommitted (%u queued + "
                  "%u reserved > cap %u)",
                  params_.name.c_str(), out, size, reserved,
                  params_.outputQueueCap);
        const bool flying = (inFlight_[out / 64] >> (out % 64)) & 1ull;
        if (flying != (reserved != 0))
            panic("Crossbar %s: output %u in-flight bit is %d with %u "
                  "reservations",
                  params_.name.c_str(), out, int(flying), reserved);
        Cycle prev_ready = nocCycle_;
        for (std::uint32_t k = 0; k < size + reserved; ++k) {
            const std::size_t slot = outSlot(out, k);
            const Packet &p = outSlots_[slot];
            if (p.dst != out)
                panic("Crossbar %s: output %u ring holds a packet for "
                      "output %u",
                      params_.name.c_str(), out, p.dst);
            if (k < size)
                continue;
            if (outReady_[slot] <= prev_ready)
                panic("Crossbar %s: output %u in-transit packet lands "
                      "at %llu, not after %llu",
                      params_.name.c_str(), out,
                      static_cast<unsigned long long>(outReady_[slot]),
                      static_cast<unsigned long long>(prev_ready));
            prev_ready = outReady_[slot];
            transit_flits += p.flits;
        }
        transit_pkts += reserved;
        outq_pkts += size;
    }

    // Conservation: every packet/flit ever injected is delivered or
    // still buffered or traversing (flits in == flits out per crossing).
    if (chkInjectedPkts_ != chkDeliveredPkts_ + voq_pkts + transit_pkts)
        panic("Crossbar %s: packet conservation broken (%llu injected, "
              "%llu delivered, %llu buffered, %llu in transit)",
              params_.name.c_str(),
              static_cast<unsigned long long>(chkInjectedPkts_),
              static_cast<unsigned long long>(chkDeliveredPkts_),
              static_cast<unsigned long long>(voq_pkts),
              static_cast<unsigned long long>(transit_pkts));
    if (chkInjectedFlits_ !=
        chkDeliveredFlits_ + voq_flits + transit_flits)
        panic("Crossbar %s: flit conservation broken (%llu injected, "
              "%llu delivered, %llu buffered, %llu in transit)",
              params_.name.c_str(),
              static_cast<unsigned long long>(chkInjectedFlits_),
              static_cast<unsigned long long>(chkDeliveredFlits_),
              static_cast<unsigned long long>(voq_flits),
              static_cast<unsigned long long>(transit_flits));

    // Delivered packets either left through eject() or still wait in
    // an output queue.
    if (chkDeliveredPkts_ != chkEjectedPkts_ + outq_pkts)
        panic("Crossbar %s: output-queue conservation broken "
              "(%llu delivered, %llu ejected, %llu queued)",
              params_.name.c_str(),
              static_cast<unsigned long long>(chkDeliveredPkts_),
              static_cast<unsigned long long>(chkEjectedPkts_),
              static_cast<unsigned long long>(outq_pkts));

    // The O(1) pending count matches the storage it summarizes.
    if (pending_ != voq_pkts + transit_pkts + outq_pkts)
        panic("Crossbar %s: pending count %zu != %llu buffered + %llu "
              "in transit + %llu queued",
              params_.name.c_str(), pending_,
              static_cast<unsigned long long>(voq_pkts),
              static_cast<unsigned long long>(transit_pkts),
              static_cast<unsigned long long>(outq_pkts));
#endif // DCL1_CHECK_ENABLED
}

std::uint64_t
Crossbar::outputFlits(std::uint32_t output) const
{
    return outputFlits_[output];
}

double
Crossbar::outputUtilization(std::uint32_t output) const
{
    const Cycle cycles = nocCycle_ - statStartCycle_;
    return cycles ? double(outputFlits_[output]) / double(cycles) : 0.0;
}

double
Crossbar::avgPacketLatency() const
{
    const auto n = delivered_.value();
    return n ? double(latencySum_.value()) / double(n) : 0.0;
}

void
Crossbar::resetStats()
{
    delivered_.reset();
    flits_.reset();
    latencySum_.reset();
    std::fill(outputFlits_.begin(), outputFlits_.end(), 0);
    statStartCycle_ = nocCycle_;
}

} // namespace dcl1::noc
