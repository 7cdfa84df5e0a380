#include "layers.hh"

#include <algorithm>
#include <deque>

#include "common/log.hh"
#include "common/rng.hh"
#include "core/design.hh"
#include "core/system_config.hh"
#include "mem/address_map.hh"
#include "mem/cache_bank.hh"
#include "mem/dram.hh"
#include "mem/replication_tracker.hh"
#include "mem/tag_array.hh"
#include "noc/crossbar.hh"
#include "workload/synthetic.hh"

namespace perfbench
{

using namespace dcl1;

namespace
{

/** Rounds per probe; the median round is reported. */
constexpr int kRounds = 7;

/** Accesses generated per app for the cache/DRAM/tracker probes. */
constexpr std::size_t kStreamAccesses = 1 << 15;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median over kRounds of (ns of one call to @p round) / @p ops. */
template <typename Fn>
double
nsPerOp(std::uint64_t ops, Fn &&round)
{
    std::vector<double> samples;
    for (int r = 0; r < kRounds; ++r) {
        const std::uint64_t t0 = steadyNs();
        round();
        samples.push_back(double(steadyNs() - t0) / double(ops));
    }
    return median(samples);
}

/** One memory access of an app's generated stream. */
struct Access
{
    CoreId core = 0;
    mem::MemOp op = mem::MemOp::Read;
    Addr addr = 0;
};

/**
 * The app's own address stream: instructions drawn round-robin over
 * @p cores x warps, exactly as SyntheticSource hands them to cores,
 * keeping the L1-visible accesses (reads and writes).
 */
std::vector<Access>
appStream(const workload::WorkloadParams &app, std::uint64_t seed,
          std::uint32_t cores)
{
    const core::SystemConfig sys;
    workload::SyntheticSource src(app, sys.numCores, sys.lineBytes, seed);
    std::vector<Access> out;
    out.reserve(kStreamAccesses);
    workload::WarpInstr instr;
    for (Cycle now = 0; out.size() < kStreamAccesses; ++now) {
        for (CoreId c = 0; c < cores && out.size() < kStreamAccesses;
             ++c) {
            const WarpId warp =
                static_cast<WarpId>(now % src.warpsPerCore(c));
            src.nextInstr(c, warp, now, instr);
            for (std::uint8_t i = 0; i < instr.numAccesses; ++i) {
                const workload::MemAccessDesc &a = instr.accesses[i];
                if (a.op == mem::MemOp::Read || a.op == mem::MemOp::Write)
                    out.push_back(Access{c, a.op, a.addr});
            }
        }
    }
    return out;
}

double
nextInstrNs(const workload::WorkloadParams &app, std::uint64_t seed)
{
    const core::SystemConfig sys;
    workload::SyntheticSource src(app, sys.numCores, sys.lineBytes, seed);
    workload::WarpInstr instr;
    constexpr std::uint64_t kCalls = 20000;
    Cycle now = 0;
    return nsPerOp(kCalls, [&] {
        for (std::uint64_t i = 0; i < kCalls; ++i, ++now) {
            const CoreId c = static_cast<CoreId>(i % sys.numCores);
            src.nextInstr(c, static_cast<WarpId>(now % 32), now, instr);
        }
    });
}

mem::CacheBankParams
l1Params()
{
    const core::SystemConfig sys;
    mem::CacheBankParams p;
    p.name = "l1";
    p.sizeBytes = sys.l1SizeBytes;
    p.assoc = sys.l1Assoc;
    p.latency = sys.l1Latency;
    p.mshrs = sys.l1Mshrs;
    p.targetsPerMshr = sys.l1TargetsPerMshr;
    p.policy = mem::WritePolicy::WriteEvict;
    return p;
}

mem::CacheBankParams
l2Params()
{
    const core::SystemConfig sys;
    mem::CacheBankParams p;
    p.name = "l2";
    p.sizeBytes = sys.l2SliceSizeBytes;
    p.assoc = sys.l2Assoc;
    p.latency = sys.l2Latency;
    p.mshrs = sys.l2Mshrs;
    p.targetsPerMshr = sys.l2TargetsPerMshr;
    p.downstreamCap = 16;
    p.policy = mem::WritePolicy::WriteBack;
    return p;
}

struct BankResult
{
    double nsPerAccess = 0.0;
    double hitRate = 0.0;
};

/**
 * Offer @p stream to one CacheBank at @p rate accesses per cycle.
 * Downstream fetches and write-through ACKs return on the next cycle;
 * fire-and-forget writebacks leave the bank for good.
 */
BankResult
driveBank(const mem::CacheBankParams &params,
          const std::vector<Access> &stream, double rate, bool l2_side,
          std::uint64_t seed)
{
    mem::CacheBank bank(params);
    Rng rng(seed);
    Cycle now = 0;
    std::size_t next = 0;
    std::uint64_t accesses = 0;
    std::vector<mem::MemRequestPtr> returning;
    const double offer = std::clamp(rate, 0.01, 1.0);

    auto step = [&] {
        ++now;
        for (auto &r : returning)
            bank.fill(std::move(r), now);
        returning.clear();
        if (rng.chance(offer) && bank.canAccept(now)) {
            const Access &a = stream[next % stream.size()];
            auto req = mem::makeRequest(a.op, a.addr, 32, a.core, 0, now);
            if (l2_side && a.op == mem::MemOp::Read)
                req->fetchDepth = 1; // an L1 miss arriving at the L2
            if (bank.access(req, now) != mem::AccessOutcome::Blocked) {
                ++next;
                ++accesses;
            }
        }
        while (auto ds = bank.takeDownstream()) {
            if ((*ds)->isWrite() && (*ds)->core == invalidId)
                continue; // writeback: absorbed below
            (*ds)->isReply = true;
            returning.push_back(std::move(*ds));
        }
        while (bank.takeCompleted(now)) {
        }
    };

    for (int i = 0; i < 2000; ++i) // fill the cache before timing
        step();
    const std::uint64_t hits0 = bank.hits();
    const std::uint64_t acc0 = bank.accesses();
    constexpr std::uint64_t kCycles = 4000;
    const std::uint64_t a0 = accesses;
    BankResult res;
    const double ns_per_cycle = nsPerOp(kCycles, [&] {
        for (std::uint64_t i = 0; i < kCycles; ++i)
            step();
    });
    const double per_round =
        double(accesses - a0) / double(kRounds);
    res.nsPerAccess =
        per_round > 0 ? ns_per_cycle * double(kCycles) / per_round : 0.0;
    const std::uint64_t acc = bank.accesses() - acc0;
    res.hitRate = acc ? double(bank.hits() - hits0) / double(acc) : 0.0;
    return res;
}

double
tagProbeNs(const std::vector<Access> &stream)
{
    const core::SystemConfig sys;
    const std::uint32_t sets =
        sys.l1SizeBytes / (sys.lineBytes * sys.l1Assoc);
    mem::TagArray tags(sets, sys.l1Assoc);
    return nsPerOp(stream.size(), [&] {
        for (const Access &a : stream) {
            const LineAddr line = a.addr / sys.lineBytes;
            if (!tags.probe(line))
                tags.insert(line);
        }
    });
}

struct DramResult
{
    double tickNs = 0.0;
    double rowHitRate = 0.0;
};

DramResult
driveDram(const std::vector<Access> &stream, double rate,
          double write_frac, std::uint64_t seed)
{
    const core::SystemConfig sys;
    const mem::AddressMap amap(sys.numL2Slices, sys.numChannels,
                               sys.chunkBytes);
    std::vector<Addr> lines;
    for (const Access &a : stream)
        if (amap.channel(a.addr) == 0)
            lines.push_back(a.addr / sys.lineBytes * sys.lineBytes);
    if (lines.empty())
        lines.push_back(0);

    mem::DramParams p = sys.dram;
    p.chunkBytes = sys.chunkBytes;
    p.numChannels = sys.numChannels;
    mem::DramChannel ch(p);
    Rng rng(seed);
    Cycle now = 0;
    std::size_t next = 0;
    const double offer = std::clamp(rate, 0.001, 1.0);
    auto step = [&] {
        ++now;
        if (rng.chance(offer) && ch.canAccept()) {
            const bool wb = rng.chance(write_frac);
            auto req = mem::makeRequest(
                wb ? mem::MemOp::Write : mem::MemOp::Read,
                lines[next++ % lines.size()], sys.lineBytes,
                wb ? invalidId : 0, 0, now);
            if (!wb)
                req->fetchDepth = 1;
            ch.push(std::move(req), now);
        }
        ch.tick(now);
        while (ch.takeCompleted(now)) {
        }
    };
    for (int i = 0; i < 2000; ++i)
        step();
    const std::uint64_t h0 = ch.rowHits(), m0 = ch.rowMisses();
    constexpr std::uint64_t kCycles = 20000;
    DramResult res;
    res.tickNs = nsPerOp(kCycles, [&] {
        for (std::uint64_t i = 0; i < kCycles; ++i)
            step();
    });
    const std::uint64_t h = ch.rowHits() - h0, m = ch.rowMisses() - m0;
    res.rowHitRate = h + m ? double(h) / double(h + m) : 0.0;
    return res;
}

/**
 * Replay the stream's misses into a ReplicationTracker as 80 private
 * L1s would report them: each core keeps its last L1-capacity lines in
 * FIFO order, so a new line is a miss, an install and (when full) an
 * eviction.
 */
double
trackerEventNs(const std::vector<Access> &stream)
{
    const core::SystemConfig sys;
    const std::size_t cap = sys.l1SizeBytes / sys.lineBytes;
    mem::ReplicationTracker tracker(sys.numCores);
    std::vector<std::deque<LineAddr>> fifo(sys.numCores);
    std::uint64_t events = 0;
    auto round = [&] {
        for (const Access &a : stream) {
            const LineAddr line = a.addr / sys.lineBytes;
            ++events;
            if (tracker.holds(a.core, line))
                continue;
            tracker.onMiss(a.core, line);
            auto &q = fifo[a.core];
            if (q.size() == cap) {
                tracker.onEvict(a.core, q.front());
                q.pop_front();
            }
            tracker.onInstall(a.core, line);
            q.push_back(line);
        }
    };
    round(); // warm the directory
    return nsPerOp(stream.size(), round);
}

struct XbarResult
{
    double tickNs = 0.0;
    double flitsPerTick = 0.0;
};

/**
 * Drive one crossbar at @p load: every input injects a packet with the
 * probability that yields the observed flit rate, to a uniformly drawn
 * output, with packet sizes averaging the observed flits per packet.
 */
XbarResult
driveXbar(const XbarGeom &g, const XbarLoad &load, std::uint64_t seed)
{
    noc::XbarParams p;
    p.name = "bench.xbar";
    p.numInputs = g.inputs;
    p.numOutputs = g.outputs;
    p.clockRatio = g.clockRatio;
    noc::Crossbar x(p);
    Rng rng(seed);
    const double fpp = std::max(1.0, load.flitsPerPacket);
    const std::uint32_t small = static_cast<std::uint32_t>(fpp);
    const double big_prob = fpp - double(small);
    const double inject = std::clamp(
        load.flitsPerTick / (double(g.inputs) * fpp), 0.0, 1.0);
    std::uint64_t flits = 0;
    auto step = [&] {
        for (std::uint32_t in = 0; in < g.inputs; ++in) {
            if (rng.chance(inject) && x.canInject(in)) {
                noc::Packet pkt;
                pkt.src = in;
                pkt.dst = static_cast<std::uint32_t>(rng.below(g.outputs));
                pkt.flits = small + (rng.chance(big_prob) ? 1 : 0);
                x.inject(std::move(pkt));
            }
        }
        x.tick();
        for (std::uint32_t out = 0; out < g.outputs; ++out)
            while (auto pkt = x.eject(out))
                flits += pkt->flits;
    };
    for (int i = 0; i < 500; ++i)
        step();
    const std::uint64_t f0 = flits;
    constexpr std::uint64_t kTicks = 2000;
    XbarResult res;
    res.tickNs = nsPerOp(kTicks, [&] {
        for (std::uint64_t i = 0; i < kTicks; ++i)
            step();
    });
    res.flitsPerTick =
        double(flits - f0) / double(kTicks * std::uint64_t(kRounds));
    return res;
}

} // anonymous namespace

std::string
XbarGeom::name() const
{
    return csprintf("%ux%u", inputs, outputs);
}

std::vector<XbarGeom>
xbarGeometries(const std::vector<std::string> &designs)
{
    const core::SystemConfig sys;
    std::vector<XbarGeom> out;
    for (const std::string &d : designs) {
        for (const core::XbarGeometry &x :
             core::crossbarInventory(core::designByName(d), sys)) {
            const bool seen = std::any_of(
                out.begin(), out.end(), [&](const XbarGeom &g) {
                    return g.inputs == x.numInputs &&
                           g.outputs == x.numOutputs;
                });
            if (!seen)
                out.push_back(
                    XbarGeom{x.numInputs, x.numOutputs, x.clockRatio});
        }
    }
    return out;
}

std::vector<XbarGeom>
allXbarGeometries()
{
    std::vector<std::string> designs;
    for (const Workload &w : workloads())
        designs.insert(designs.end(), w.designs.begin(), w.designs.end());
    return xbarGeometries(designs);
}

LayerShape
shapeFrom(const Workload &w, std::uint64_t seed_slot,
          const std::vector<PassResult> &passes)
{
    const core::SystemConfig sys;
    LayerShape shape;
    shape.seedSlot = seed_slot;

    // The workload's own clock for each shape it builds; the others
    // keep the clock of the first design that builds them.
    shape.geoms = allXbarGeometries();
    for (const XbarGeom &own : xbarGeometries(w.designs))
        for (XbarGeom &g : shape.geoms)
            if (g.name() == own.name())
                g.clockRatio = own.clockRatio;

    struct AppSum
    {
        double l1 = 0, l2 = 0, dram = 0, dramWrites = 0, dramAll = 0;
        int n = 0;
    };
    std::map<std::string, AppSum> app_sum;
    struct XbarSum
    {
        double flits = 0, packets = 0, cycles = 0;
    };
    std::map<std::string, XbarSum> xbar_sum;
    double all_flits = 0, all_packets = 0, all_input_cycles = 0;

    for (const PassResult &pass : passes) {
        for (const CellRun &c : pass.cells) {
            if (!c.ok || c.rm.cycles == 0)
                continue;
            const std::string design = c.label.substr(0, c.label.find('/'));
            const std::string app = c.label.substr(c.label.find('/') + 1);
            const core::DesignConfig dc = core::designByName(design);
            const double cyc = double(c.rm.cycles);
            const double banks = dc.topology == core::Topology::DcL1
                                     ? double(dc.numNodes)
                                     : double(sys.numCores);
            AppSum &a = app_sum[app];
            a.l1 += double(c.rm.l1Accesses) / (cyc * banks);
            a.l2 += double(c.rm.l2Accesses) / (cyc * sys.numL2Slices);
            const double dram = double(c.rm.dramReads + c.rm.dramWrites);
            a.dram += dram / (cyc * sys.numChannels);
            a.dramWrites += double(c.rm.dramWrites);
            a.dramAll += dram;
            ++a.n;
            for (const XbarObs &x : c.xbars) {
                XbarSum &s =
                    xbar_sum[XbarGeom{x.inputs, x.outputs, 0}.name()];
                s.flits += double(x.flits);
                s.packets += double(x.packets);
                s.cycles += cyc;
                all_flits += double(x.flits);
                all_packets += double(x.packets);
                all_input_cycles += cyc * x.inputs;
            }
        }
    }
    for (const auto &[app, s] : app_sum) {
        AppLoad &l = shape.apps[app];
        l.l1PerBankCycle = s.l1 / s.n;
        l.l2PerSliceCycle = s.l2 / s.n;
        l.dramPerChannelCycle = s.dram / s.n;
        l.dramWriteFrac = s.dramAll > 0 ? s.dramWrites / s.dramAll : 0.0;
    }
    // Every app of the workload gets a load, even one whose cells all
    // failed (the probes still run; the failure is reported anyway).
    for (const std::string &app : w.apps)
        shape.apps.try_emplace(app);

    const double fallback_per_input =
        all_input_cycles > 0 ? all_flits / all_input_cycles : 0.0;
    const double fallback_fpp =
        all_packets > 0 ? all_flits / all_packets : 1.0;
    for (const XbarGeom &g : shape.geoms) {
        XbarLoad &l = shape.xbars[g.name()];
        const auto it = xbar_sum.find(g.name());
        if (it != xbar_sum.end() && it->second.cycles > 0) {
            l.flitsPerTick = it->second.flits / it->second.cycles;
            l.flitsPerPacket = it->second.packets > 0
                                   ? it->second.flits / it->second.packets
                                   : 1.0;
        } else {
            // A shape this workload does not build (or whose traffic
            // the stat tree does not expose, as with CDXBar): offer the
            // workload's mean per-input flit rate.
            l.flitsPerTick = fallback_per_input * g.inputs;
            l.flitsPerPacket = fallback_fpp;
        }
    }
    return shape;
}

std::vector<std::pair<std::string, double>>
driveLayers(const LayerShape &shape)
{
    std::vector<std::pair<std::string, double>> out;
    const std::uint64_t seed = platformSeed(shape.seedSlot);

    for (const XbarGeom &g : shape.geoms) {
        const XbarResult r = driveXbar(g, shape.xbars.at(g.name()), seed);
        out.emplace_back("noc.xbar_" + g.name() + ".tick_ns", r.tickNs);
        out.emplace_back("noc.xbar_" + g.name() + ".flits_per_tick",
                         r.flitsPerTick);
    }

    const core::SystemConfig sys;
    std::vector<double> next_instr, l1_ns, l2_ns, l1_hit, tag_ns, dram_ns,
        dram_hit, tracker_ns;
    for (const auto &[app, load] : shape.apps) {
        const workload::WorkloadParams params = appParams(app);
        next_instr.push_back(nextInstrNs(params, seed));

        const std::vector<Access> all = appStream(params, seed, sys.numCores);
        const std::vector<Access> core0 = appStream(params, seed, 1);
        const mem::AddressMap amap(sys.numL2Slices, sys.numChannels,
                                   sys.chunkBytes);
        std::vector<Access> slice0;
        for (const Access &a : all)
            if (amap.slice(a.addr) == 0)
                slice0.push_back(a);
        if (slice0.empty())
            slice0 = all;

        const BankResult l1 =
            driveBank(l1Params(), core0, load.l1PerBankCycle, false, seed);
        const BankResult l2 = driveBank(l2Params(), slice0,
                                        load.l2PerSliceCycle, true, seed);
        l1_ns.push_back(l1.nsPerAccess);
        l1_hit.push_back(l1.hitRate);
        l2_ns.push_back(l2.nsPerAccess);
        tag_ns.push_back(tagProbeNs(core0));
        const DramResult dr = driveDram(all, load.dramPerChannelCycle,
                                        load.dramWriteFrac, seed);
        dram_ns.push_back(dr.tickNs);
        dram_hit.push_back(dr.rowHitRate);
        tracker_ns.push_back(trackerEventNs(all));
    }
    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return v.empty() ? 0.0 : s / double(v.size());
    };
    out.emplace_back("workload.next_instr_ns", mean(next_instr));
    out.emplace_back("mem.cache_bank.access_ns.l1", mean(l1_ns));
    out.emplace_back("mem.cache_bank.access_ns.l2", mean(l2_ns));
    out.emplace_back("mem.cache_bank.hit_rate", mean(l1_hit));
    out.emplace_back("mem.tag_array.probe_ns", mean(tag_ns));
    out.emplace_back("mem.dram.tick_ns", mean(dram_ns));
    out.emplace_back("mem.dram.row_hit_rate", mean(dram_hit));
    out.emplace_back("mem.replication_tracker.event_ns", mean(tracker_ns));
    return out;
}

} // namespace perfbench
