/**
 * @file
 * Hierarchical two-stage crossbar network (CDXBar, after Zhao et al.
 * [10], [20]) used in the paper's Figure 19a sensitivity study.
 *
 * Request direction (Concentrate): Z local N*K crossbars concentrate
 * core traffic onto Z*K trunk links feeding one (Z*K) x M global
 * crossbar. Reply direction (Distribute) mirrors it: one M x (Z*K)
 * global crossbar fans out to Z local K*N crossbars. Stage clock
 * ratios are independent so the paper's CDXBar+2xNoC1 (local stage
 * doubled) and CDXBar+2xNoC (both doubled) variants can be modelled.
 */

#ifndef DCL1_NOC_CDXBAR_HH
#define DCL1_NOC_CDXBAR_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "noc/crossbar.hh"
#include "noc/network.hh"
#include "noc/packet.hh"

namespace dcl1::noc
{

/** Traffic direction through the hierarchy. */
enum class CdxDirection { Concentrate, Distribute };

/** Geometry of a CdXbarNet. */
struct CdxParams
{
    std::string name = "cdxbar";
    CdxDirection direction = CdxDirection::Concentrate;
    std::uint32_t clusters = 10;     ///< Z
    std::uint32_t perCluster = 8;    ///< N endpoints per local crossbar
    std::uint32_t trunksPerCluster = 4; ///< K
    std::uint32_t globalPorts = 32;  ///< M (far-side port count)
    double localClockRatio = 0.5;
    double globalClockRatio = 0.5;
    std::uint32_t inputQueueCap = 16;
    std::uint32_t outputQueueCap = 4;
    std::uint32_t routerLatency = 2;
    std::uint32_t flitBytes = defaultFlitBytes;
};

/**
 * See file comment. The local crossbars are NoC level 1, the global
 * one level 2; xbars() lists the Z locals, then the global crossbar.
 */
class CdXbarNet final : public Network
{
  public:
    explicit CdXbarNet(const CdxParams &params);

    /** Number of near-side endpoints (cores). */
    std::uint32_t numNear() const;
    /** Number of far-side endpoints (L2 slices). */
    std::uint32_t numFar() const { return params_.globalPorts; }

    /**
     * Can endpoint @p src inject? For Concentrate, src is a near-side
     * (core) index; for Distribute a far-side (slice) index.
     */
    bool canInject(std::uint32_t src) const override;

    /** Inject a request/reply from @p src to @p dst. */
    void inject(std::uint32_t src, std::uint32_t dst,
                mem::MemRequestPtr req) override;

    /** Pop a delivered packet at destination endpoint @p dst. */
    std::optional<mem::MemRequestPtr> eject(std::uint32_t dst) override;

    /** Advance one core cycle (both stages + inter-stage glue). */
    void tick() override;

    /**
     * Adds nothing: adding CDXBar's crossbars to the stat tree would
     * change the stat digest of every pinned CDXBar result, so it
     * waits for a change that re-pins them.
     */
    void addStatChildren(stats::StatGroup &) override {}

    const CdxParams &params() const { return params_; }

    /** Packets buffered or in flight anywhere in either stage. */
    std::size_t pendingPackets() const;

    /**
     * Verify end-to-end conservation across the two stages
     * (DCL1_CHECK builds): every packet injected into the net was
     * either ejected or is still inside one of the crossbars.
     * panic()s on violation. Each member crossbar additionally runs
     * its own internal audit on its own cadence.
     */
    void checkInvariants() const override;

  private:
    Crossbar &local(std::uint32_t z) { return *xbars_[z]; }
    Crossbar &global() { return *xbars_.back(); }
    const Crossbar &global() const { return *xbars_.back(); }

    CdxParams params_;

    Cycle tickCount_ = 0;

    /// @name Net-level conservation counters (DCL1_CHECK)
    /// @{
    std::uint64_t chkInjectedPkts_ = 0;
    std::uint64_t chkEjectedPkts_ = 0;
    /// @}
};

} // namespace dcl1::noc

#endif // DCL1_NOC_CDXBAR_HH
