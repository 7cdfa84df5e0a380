/**
 * @file
 * Endpoint-addressed networks: the one interface the system drives
 * every interconnect through.
 *
 * A network carries requests from numbered source endpoints to
 * numbered destination endpoints (cores, DC-L1 nodes, L2 slices, in
 * whatever numbering the caller uses). Callers never see crossbars or
 * ports: the network maps each endpoint to a (crossbar, port) pair and
 * serializes each request into flits itself.
 *
 * Two implementations:
 *  - XbarNet (here): one stage of identical crossbars — the baseline's
 *    80x32 pair, NoC#1's per-cluster crossbars, NoC#2 as M partitions
 *    or one full crossbar;
 *  - CdXbarNet (noc/cdxbar.hh): the two-stage hierarchical crossbar.
 * A new NoC (a mesh, a bufferless network, ...) implements the same
 * surface.
 */

#ifndef DCL1_NOC_NETWORK_HH
#define DCL1_NOC_NETWORK_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/request.hh"
#include "noc/crossbar.hh"

namespace dcl1::noc
{

/** See file comment. */
class Network
{
  public:
    Network() = default;
    virtual ~Network() = default;
    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Room for another packet from source endpoint @p src? */
    virtual bool canInject(std::uint32_t src) const = 0;

    /** Send @p req from source @p src to destination endpoint @p dst. */
    virtual void inject(std::uint32_t src, std::uint32_t dst,
                        mem::MemRequestPtr req) = 0;

    /** Pop a request delivered to destination endpoint @p dst. */
    virtual std::optional<mem::MemRequestPtr> eject(std::uint32_t dst) = 0;

    /** Advance one core cycle. */
    virtual void tick() = 0;

    /** Any packet buffered or in flight? */
    bool
    busy() const
    {
        for (const auto &x : xbars_)
            if (x->busy())
                return true;
        return false;
    }

    void
    resetStats()
    {
        for (auto &x : xbars_)
            x->resetStats();
    }

    /**
     * Audit the network's bookkeeping now (DCL1_CHECK builds; no-op
     * otherwise). panic()s on violation.
     */
    virtual void checkInvariants() const = 0;

    /** Attach the crossbars' statistics to @p root. */
    virtual void
    addStatChildren(stats::StatGroup &root)
    {
        for (auto &x : xbars_)
            root.addChild(&x->statGroup());
    }

    /**
     * Every crossbar of the network. XbarParams::level tells which NoC
     * level (1 = core side, 2 = memory side) each one belongs to.
     */
    std::vector<std::unique_ptr<Crossbar>> &xbars() { return xbars_; }

  protected:
    std::vector<std::unique_ptr<Crossbar>> xbars_;
};

/** How a bank of crossbars divides one side's endpoints among ports. */
enum class Spread : std::uint8_t
{
    Blocked,     ///< endpoint e: crossbar e / ports, port e % ports
    Interleaved, ///< endpoint e: crossbar e % count, port e / count
};

/** Geometry of an XbarNet. */
struct XbarNetParams
{
    /** Every crossbar's parameters; xbar.name names the bank. */
    XbarParams xbar;
    std::uint32_t count = 1; ///< crossbars in the bank
    /** Name crossbar i xbar.name + i (else the bank's one crossbar
     *  takes xbar.name as is). */
    bool numbered = false;
    Spread inSpread = Spread::Blocked;  ///< source endpoints
    Spread outSpread = Spread::Blocked; ///< destination endpoints
    std::uint32_t flitBytes = defaultFlitBytes;
};

/**
 * One stage of identical crossbars. Source and destination of a packet
 * must attach to the same crossbar: the bank has no links between its
 * members.
 */
class XbarNet final : public Network
{
  public:
    explicit XbarNet(const XbarNetParams &params);

    bool canInject(std::uint32_t src) const override;
    void inject(std::uint32_t src, std::uint32_t dst,
                mem::MemRequestPtr req) override;
    std::optional<mem::MemRequestPtr> eject(std::uint32_t dst) override;
    void tick() override;
    void checkInvariants() const override;

  private:
    struct Port
    {
        std::uint32_t xbar;
        std::uint32_t port;
    };

    XbarNetParams params_;
    /** Where each source / destination endpoint attaches. */
    std::vector<Port> inputs_;
    std::vector<Port> outputs_;
};

} // namespace dcl1::noc

#endif // DCL1_NOC_NETWORK_HH
