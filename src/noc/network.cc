#include "noc/network.hh"

#include <string>

#include "common/log.hh"

namespace dcl1::noc
{

XbarNet::XbarNet(const XbarNetParams &params) : params_(params)
{
    if (params.count == 0)
        fatal("XbarNet %s: needs at least one crossbar",
              params.xbar.name.c_str());
    for (std::uint32_t i = 0; i < params.count; ++i) {
        XbarParams xp = params.xbar;
        if (params.numbered)
            xp.name += std::to_string(i);
        xbars_.push_back(std::make_unique<Crossbar>(xp));
    }

    auto attach = [&](Spread spread, std::uint32_t ports,
                      std::vector<Port> &table) {
        for (std::uint32_t e = 0; e < params.count * ports; ++e) {
            if (spread == Spread::Blocked)
                table.push_back({e / ports, e % ports});
            else
                table.push_back({e % params.count, e / params.count});
        }
    };
    attach(params.inSpread, params.xbar.numInputs, inputs_);
    attach(params.outSpread, params.xbar.numOutputs, outputs_);
}

bool
XbarNet::canInject(std::uint32_t src) const
{
    const Port in = inputs_[src];
    return xbars_[in.xbar]->canInject(in.port);
}

void
XbarNet::inject(std::uint32_t src, std::uint32_t dst,
                mem::MemRequestPtr req)
{
    if (src >= inputs_.size() || dst >= outputs_.size() ||
        inputs_[src].xbar != outputs_[dst].xbar)
        panic("XbarNet %s: no path from endpoint %u to endpoint %u",
              params_.xbar.name.c_str(), src, dst);
    Packet pkt;
    pkt.src = inputs_[src].port;
    pkt.dst = outputs_[dst].port;
    pkt.flits = flitsFor(*req, params_.flitBytes);
    pkt.req = std::move(req);
    xbars_[inputs_[src].xbar]->inject(std::move(pkt));
}

std::optional<mem::MemRequestPtr>
XbarNet::eject(std::uint32_t dst)
{
    const Port out = outputs_[dst];
    Crossbar &x = *xbars_[out.xbar];
    if (!x.hasEjectable(out.port))
        return std::nullopt;
    return std::move(x.eject(out.port)->req);
}

void
XbarNet::tick()
{
    for (auto &x : xbars_)
        x->tick();
}

void
XbarNet::checkInvariants() const
{
    for (const auto &x : xbars_)
        x->checkInvariants();
}

} // namespace dcl1::noc
