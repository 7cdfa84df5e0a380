#include "noc/cdxbar.hh"

#include "check/check.hh"
#include "common/log.hh"

namespace dcl1::noc
{

CdXbarNet::CdXbarNet(const CdxParams &params) : params_(params)
{
    if (params.clusters == 0 || params.perCluster == 0 ||
        params.trunksPerCluster == 0 || params.globalPorts == 0) {
        fatal("CdXbarNet %s: all geometry fields must be nonzero",
              params.name.c_str());
    }

    const bool conc = params.direction == CdxDirection::Concentrate;
    for (std::uint32_t z = 0; z < params.clusters; ++z) {
        XbarParams xp;
        xp.name = params.name + ".local" + std::to_string(z);
        xp.numInputs = conc ? params.perCluster : params.trunksPerCluster;
        xp.numOutputs = conc ? params.trunksPerCluster : params.perCluster;
        xp.inputQueueCap = params.inputQueueCap;
        xp.outputQueueCap = params.outputQueueCap;
        xp.routerLatency = params.routerLatency;
        xp.clockRatio = params.localClockRatio;
        xp.level = 1;
        xbars_.push_back(std::make_unique<Crossbar>(xp));
    }

    XbarParams gp;
    gp.name = params.name + ".global";
    const std::uint32_t trunks = params.clusters * params.trunksPerCluster;
    gp.numInputs = conc ? trunks : params.globalPorts;
    gp.numOutputs = conc ? params.globalPorts : trunks;
    gp.inputQueueCap = params.inputQueueCap;
    gp.outputQueueCap = params.outputQueueCap;
    gp.routerLatency = params.routerLatency;
    gp.clockRatio = params.globalClockRatio;
    xbars_.push_back(std::make_unique<Crossbar>(gp));
}

std::uint32_t
CdXbarNet::numNear() const
{
    return params_.clusters * params_.perCluster;
}

bool
CdXbarNet::canInject(std::uint32_t src) const
{
    if (params_.direction == CdxDirection::Concentrate) {
        return xbars_[src / params_.perCluster]->canInject(
            src % params_.perCluster);
    }
    return global().canInject(src);
}

void
CdXbarNet::inject(std::uint32_t src, std::uint32_t dst,
                  mem::MemRequestPtr req)
{
    Packet pkt;
    pkt.flits = flitsFor(*req, params_.flitBytes);
    pkt.endpoint = dst;
    pkt.req = std::move(req);
    DCL1_CHECK_ONLY(++chkInjectedPkts_);

    if (params_.direction == CdxDirection::Concentrate) {
        // Core -> local crossbar; trunk chosen by final destination so
        // traffic to different slices spreads over the K trunks.
        pkt.src = src % params_.perCluster;
        pkt.dst = dst % params_.trunksPerCluster;
        local(src / params_.perCluster).inject(std::move(pkt));
    } else {
        // Slice -> global crossbar; trunk of the destination cluster
        // chosen by destination index for spread.
        const std::uint32_t cluster = dst / params_.perCluster;
        pkt.src = src;
        pkt.dst = cluster * params_.trunksPerCluster +
                  (dst % params_.trunksPerCluster);
        global().inject(std::move(pkt));
    }
}

std::optional<mem::MemRequestPtr>
CdXbarNet::eject(std::uint32_t dst)
{
    std::optional<Packet> pkt;
    if (params_.direction == CdxDirection::Concentrate)
        pkt = global().eject(dst);
    else
        pkt = local(dst / params_.perCluster).eject(
            dst % params_.perCluster);
    if (!pkt)
        return std::nullopt;
    DCL1_CHECK_ONLY(++chkEjectedPkts_);
    return std::move(pkt->req);
}

void
CdXbarNet::tick()
{
    for (auto &x : xbars_)
        x->tick();

#if DCL1_CHECK_ENABLED
    if ((++tickCount_ & 63) == 0)
        checkInvariants();
#endif

    // Inter-stage glue: move packets that finished one stage into the
    // next, respecting input-queue backpressure.
    if (params_.direction == CdxDirection::Concentrate) {
        for (std::uint32_t z = 0; z < params_.clusters; ++z) {
            for (std::uint32_t k = 0; k < params_.trunksPerCluster; ++k) {
                const std::uint32_t trunk =
                    z * params_.trunksPerCluster + k;
                while (local(z).hasEjectable(k) &&
                       global().canInject(trunk)) {
                    Packet pkt = *local(z).eject(k);
                    pkt.src = trunk;
                    pkt.dst = pkt.endpoint;
                    global().inject(std::move(pkt));
                }
            }
        }
    } else {
        for (std::uint32_t z = 0; z < params_.clusters; ++z) {
            for (std::uint32_t k = 0; k < params_.trunksPerCluster; ++k) {
                const std::uint32_t trunk =
                    z * params_.trunksPerCluster + k;
                while (global().hasEjectable(trunk) &&
                       local(z).canInject(k)) {
                    Packet pkt = *global().eject(trunk);
                    pkt.src = k;
                    pkt.dst = pkt.endpoint % params_.perCluster;
                    local(z).inject(std::move(pkt));
                }
            }
        }
    }
}

std::size_t
CdXbarNet::pendingPackets() const
{
    std::size_t pending = 0;
    for (const auto &x : xbars_)
        pending += x->pendingPackets();
    return pending;
}

void
CdXbarNet::checkInvariants() const
{
#if DCL1_CHECK_ENABLED
    const std::size_t inside = pendingPackets();
    if (chkInjectedPkts_ != chkEjectedPkts_ + inside)
        panic("CdXbarNet %s: packet conservation broken "
              "(%llu injected, %llu ejected, %zu inside)",
              params_.name.c_str(),
              static_cast<unsigned long long>(chkInjectedPkts_),
              static_cast<unsigned long long>(chkEjectedPkts_), inside);
#endif // DCL1_CHECK_ENABLED
}

} // namespace dcl1::noc
