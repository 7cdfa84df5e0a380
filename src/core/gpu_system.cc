#include "core/gpu_system.hh"

#include <algorithm>
#include <limits>

#include "check/check.hh"
#include "check/request_ledger.hh"
#include "common/env.hh"
#include "common/log.hh"
#include "noc/cdxbar.hh"
#include "prof/prof.hh"

namespace dcl1::core
{

Cycle
timelineIntervalFromEnv()
{
    return static_cast<Cycle>(
        envIntOr("DCL1_TIMELINE_INTERVAL", 1024, 1,
                 std::numeric_limits<std::int64_t>::max()));
}

workload::WorkloadParams
effectiveWorkload(const DesignConfig &design, workload::WorkloadParams app)
{
    if (design.distributedCta) {
        // The distributed CTA scheduler [28] maps nearby CTAs to the
        // same core, confining each core's shared accesses to a range
        // small enough that even a private L1 captures much of it
        // (this is why the scheduler shrinks the paper's DC-L1
        // headroom).
        app.ctaLocality = std::max(app.ctaLocality, 0.85);
    }
    return app;
}

GpuSystem::GpuSystem(const SystemConfig &sys, const DesignConfig &design,
                     const workload::WorkloadParams &app,
                     std::unique_ptr<workload::TraceSource> source)
    : sys_(sys), design_(design),
      addrMap_(sys.numL2Slices, sys.numChannels, sys.chunkBytes)
{
    build(&app, std::move(source));
}

GpuSystem::GpuSystem(const SystemConfig &sys, const DesignConfig &design)
    : sys_(sys), design_(design),
      addrMap_(sys.numL2Slices, sys.numChannels, sys.chunkBytes)
{
    build(nullptr, nullptr);
}

GpuSystem::~GpuSystem()
{
    // Never leave a dangling thread-local trace sink behind.
    if (trace_ && stats::tlsTraceSink() == trace_)
        stats::tlsTraceSink() = nullptr;
}

mem::CacheBankParams
GpuSystem::l1BankParams() const
{
    mem::CacheBankParams p;
    p.name = "l1";
    p.sizeBytes = design_.l1SizeFor(sys_);
    p.assoc = sys_.l1Assoc;
    p.lineBytes = sys_.lineBytes;
    p.latency = design_.l1LatencyFor(sys_);
    p.mshrs = sys_.l1Mshrs;
    p.targetsPerMshr = sys_.l1TargetsPerMshr;
    p.policy = sys_.l1WritePolicy;
    p.repl = sys_.l1Repl;
    p.perfect = design_.perfectL1;
    if (design_.topology == Topology::DcL1) {
        // Aggregated nodes serve several cores: scale the MSHR file
        // with the aggregation factor (capacity is aggregated), and
        // scale the merge-target capacity with the worst-case sharing
        // degree so cross-core merging does not head-of-line block Q1.
        p.mshrs = sys_.l1Mshrs * design_.coresPerNode(sys_);
        const std::uint32_t sharers = design_.coresPerCluster(sys_);
        p.targetsPerMshr = sys_.l1TargetsPerMshr *
                           std::max<std::uint32_t>(1, sharers / 4);
        p.downstreamCap = 8 * design_.coresPerNode(sys_);
    }
    // Larger caches need associativity to scale a little for LRU not
    // to be the bottleneck in capacity studies (16x L1 of Fig. 1).
    if (design_.l1CapacityScale > 1.0)
        p.assoc = sys_.l1Assoc * 2;
    return p;
}

mem::CacheBankParams
GpuSystem::l2BankParams() const
{
    mem::CacheBankParams p;
    p.name = "l2";
    p.sizeBytes = sys_.l2SliceSizeBytes;
    p.assoc = sys_.l2Assoc;
    p.lineBytes = sys_.lineBytes;
    p.latency = sys_.l2Latency;
    p.mshrs = sys_.l2Mshrs;
    p.targetsPerMshr = sys_.l2TargetsPerMshr;
    p.downstreamCap = 16;
    p.policy = mem::WritePolicy::WriteBack;
    p.repl = sys_.l2Repl;
    p.custody = stats::Custody::L2;
    return p;
}

void
GpuSystem::build(const workload::WorkloadParams *app,
                 std::unique_ptr<workload::TraceSource> source)
{
    DCL1_PROF_SCOPE(Build);
    sys_.validate();
    design_.validate(sys_);

    if (source) {
        source_ = std::move(source);
    } else if (app) {
        source_ = std::make_unique<workload::SyntheticSource>(
            effectiveWorkload(design_, *app), sys_.numCores,
            sys_.lineBytes, sys_.seed);
    }

    const bool dcl1 = design_.topology == Topology::DcL1;
    tracker_ = std::make_unique<mem::ReplicationTracker>(
        dcl1 ? design_.numNodes : sys_.numCores);

    for (std::uint32_t c = 0; c < sys_.numChannels; ++c) {
        mem::DramParams dp = sys_.dram;
        dp.name = "dram" + std::to_string(c);
        dp.chunkBytes = sys_.chunkBytes;
        dp.numChannels = sys_.numChannels;
        channels_.push_back(std::make_unique<mem::DramChannel>(dp));
    }
    for (SliceId s = 0; s < sys_.numL2Slices; ++s) {
        mem::CacheBankParams l2p = l2BankParams();
        l2p.name = "l2s" + std::to_string(s);
        slices_.push_back(std::make_unique<mem::L2Slice>(
            l2p, s, channels_[addrMap_.channelOfSlice(s)].get()));
    }

    // DC-L1 designs move each core's L1 out into the nodes (the
    // paper's "Lite Core").
    for (CoreId c = 0; c < sys_.numCores; ++c) {
        gpucore::LiteCoreParams cp;
        cp.id = c;
        cp.sched = sys_.warpScheduler;
        cp.lineBytes = sys_.lineBytes;
        cp.hasL1 = !dcl1;
        if (cp.hasL1)
            cp.l1 = l1BankParams();
        cores_.push_back(std::make_unique<gpucore::LiteCore>(
            cp, source_.get(), dcl1 ? nullptr : tracker_.get()));
    }
    if (dcl1) {
        org_ = std::make_unique<Organization>(design_, sys_);
        for (NodeId n = 0; n < design_.numNodes; ++n) {
            nodes_.push_back(std::make_unique<DcL1Node>(
                l1BankParams(), n, sys_.nodeQueueCap, tracker_.get(),
                design_.fullLineReplies));
        }
    }
    buildNetworks();
}

void
GpuSystem::buildNetworks()
{
    // A request bank of `count` crossbars, near x far ports each, and
    // its mirror-image reply bank. Near endpoints are cores (NoC#1,
    // Baseline) or nodes (NoC#2); far ones nodes (NoC#1) or slices.
    auto add_pair = [this](const std::string &name, bool numbered,
                           std::uint32_t count, std::uint32_t near,
                           std::uint32_t far, noc::Spread spread,
                           double clock_ratio, std::uint32_t level) {
        noc::XbarNetParams p;
        p.xbar.name = name + ".req";
        p.xbar.numInputs = near;
        p.xbar.numOutputs = far;
        p.xbar.clockRatio = clock_ratio;
        p.xbar.level = level;
        p.count = count;
        p.numbered = numbered;
        p.inSpread = p.outSpread = spread;
        p.flitBytes = sys_.flitBytes;
        nets_.push_back(std::make_unique<noc::XbarNet>(p));
        p.xbar.name = name + ".reply";
        std::swap(p.xbar.numInputs, p.xbar.numOutputs);
        nets_.push_back(std::make_unique<noc::XbarNet>(p));
    };

    switch (design_.topology) {
      case Topology::PrivateBaseline:
        add_pair("noc", false, 1, sys_.numCores, sys_.numL2Slices,
                 noc::Spread::Blocked, design_.noc2ClockRatio, 2);
        break;
      case Topology::CdXbar: {
        noc::CdxParams req;
        req.name = "cdx.req";
        req.direction = noc::CdxDirection::Concentrate;
        req.clusters = design_.cdxClusters;
        req.perCluster = sys_.numCores / design_.cdxClusters;
        req.trunksPerCluster = design_.cdxTrunksPerCluster;
        req.globalPorts = sys_.numL2Slices;
        req.localClockRatio = design_.cdxLocalClockRatio;
        req.globalClockRatio = design_.cdxGlobalClockRatio;
        req.flitBytes = sys_.flitBytes;
        nets_.push_back(std::make_unique<noc::CdXbarNet>(req));

        noc::CdxParams rep = req;
        rep.name = "cdx.reply";
        rep.direction = noc::CdxDirection::Distribute;
        nets_.push_back(std::make_unique<noc::CdXbarNet>(rep));
        break;
      }
      case Topology::DcL1: {
        // NoC#1: one crossbar per cluster; cores and nodes are numbered
        // cluster by cluster.
        const std::uint32_t z = design_.clusters;
        const std::uint32_t m = design_.nodesPerCluster();
        add_pair("noc1", true, z, design_.coresPerCluster(sys_), m,
                 noc::Spread::Blocked, design_.noc1ClockRatio, 1);
        // NoC#2: partition g joins every cluster's home-g node (node
        // n: cluster n / m, home n % m) to the slices s with s % m == g.
        if (design_.partitionedNoc2(sys_)) {
            add_pair("noc2", true, m, z, sys_.numL2Slices / m,
                     noc::Spread::Interleaved, design_.noc2ClockRatio, 2);
        } else {
            add_pair("noc2", false, 1, design_.numNodes, sys_.numL2Slices,
                     noc::Spread::Blocked, design_.noc2ClockRatio, 2);
        }
        break;
      }
    }
}

void
GpuSystem::tickMemory()
{
    {
        DCL1_PROF_SCOPE(Dram);
        for (std::uint32_t c = 0; c < sys_.numChannels; ++c) {
            channels_[c]->tick(cycle_);
            while (auto done = channels_[c]->takeCompleted(cycle_)) {
                const SliceId s = (*done)->slice;
                if (s >= slices_.size())
                    panic("DRAM reply with bad slice %u", s);
                slices_[s]->onDramReply(std::move(*done), cycle_);
            }
        }
    }
    {
        DCL1_PROF_SCOPE(L2);
        for (auto &slice : slices_)
            slice->tick(cycle_);
    }
}

void
GpuSystem::countQuiescent()
{
    std::uint64_t idle_cores = 0;
    for (const auto &core : cores_)
        if (!core->busy())
            ++idle_cores;
    DCL1_PROF_COUNT(QuiescentCore, idle_cores);
    std::uint64_t idle_nodes = 0;
    for (const auto &node : nodes_)
        if (!node->busy())
            ++idle_nodes;
    DCL1_PROF_COUNT(QuiescentNode, idle_nodes);
}

void
GpuSystem::tickOnce()
{
    ++cycle_;
    DCL1_PROF_COUNT(TickCycles, 1);
    if (prof::active())
        countQuiescent();
    tickMemory();

    prof::ProfPhase noc_scope(prof::Phase::Noc);

    // L2 replies -> memory-side reply network.
    noc::Network &mem_reply = memReply();
    for (SliceId s = 0; s < sys_.numL2Slices; ++s) {
        while (mem_reply.canInject(s)) {
            auto reply = slices_[s]->takeReply();
            if (!reply)
                break;
            const std::uint32_t dst =
                nodes_.empty() ? (*reply)->core : (*reply)->homeNode;
            send(mem_reply, s, dst, std::move(*reply));
        }
    }

    for (auto &net : nets_)
        net->tick();

    // Deliveries; every receiver but a core can push back.
    noc::Network &mem_req = memReq();
    for (SliceId s = 0; s < sys_.numL2Slices; ++s) {
        while (slices_[s]->canAcceptRequest()) {
            auto req = mem_req.eject(s);
            if (!req)
                break;
            slices_[s]->pushRequest(std::move(*req), cycle_);
        }
    }
    for (NodeId n = 0; n < nodes_.size(); ++n) {
        while (nodes_[n]->canAcceptFromMem()) {
            auto reply = mem_reply.eject(n);
            if (!reply)
                break;
            nodes_[n]->pushFromMem(std::move(*reply), cycle_);
        }
    }
    noc::Network &core_req = coreReq();
    for (NodeId n = 0; n < nodes_.size(); ++n) {
        while (nodes_[n]->canAcceptFromCore()) {
            auto req = core_req.eject(n);
            if (!req)
                break;
            nodes_[n]->pushFromCore(std::move(*req), cycle_);
        }
    }
    noc::Network &core_reply = coreReply();
    for (CoreId c = 0; c < sys_.numCores; ++c) {
        while (auto reply = core_reply.eject(c))
            cores_[c]->deliverReply(std::move(*reply), cycle_);
    }

    noc_scope.stop();

    if (!nodes_.empty())
        tickNodes();

    // Core outbound (L1 misses, write-throughs, atomics, bypass), then
    // the cores tick.
    DCL1_PROF_SCOPE(Core);
    for (CoreId c = 0; c < sys_.numCores; ++c) {
        while (cores_[c]->hasOutbound() && core_req.canInject(c)) {
            auto req = cores_[c]->takeOutbound();
            const std::uint32_t dst = routeFromCore(c, **req);
            send(core_req, c, dst, std::move(*req));
        }
        cores_[c]->tick(cycle_);
    }
}

std::uint32_t
GpuSystem::routeFromCore(CoreId core, mem::MemRequest &req) const
{
    if (org_) {
        req.homeNode = org_->homeNode(core, req.addr);
        return req.homeNode;
    }
    req.slice = addrMap_.slice(req.addr);
    return req.slice;
}

void
GpuSystem::send(noc::Network &net, std::uint32_t src, std::uint32_t dst,
                mem::MemRequestPtr req)
{
    mem::handoff(*req,
                 req->isReply ? stats::Custody::NocReply
                              : stats::Custody::NocReq,
                 cycle_);
    net.inject(src, dst, std::move(req));
}

void
GpuSystem::tickNodes()
{
    DCL1_PROF_SCOPE(Node);
    noc::Network &mem_req = memReq();
    noc::Network &core_reply = coreReply();
    for (NodeId n = 0; n < nodes_.size(); ++n) {
        DcL1Node &node = *nodes_[n];
        node.tick(cycle_);

        // Q3 -> memory-side request network.
        while (node.hasToMem() && mem_req.canInject(n)) {
            auto req = node.takeToMem();
            const SliceId slice = addrMap_.slice((*req)->addr);
            (*req)->slice = slice;
            send(mem_req, n, slice, std::move(*req));
        }

        // Q2 -> core-side reply network.
        while (node.hasToCore() && core_reply.canInject(n)) {
            auto reply = node.takeToCore();
            const CoreId core = (*reply)->core;
            send(core_reply, n, core, std::move(*reply));
        }
    }
}

namespace
{

/**
 * Arms the in-loop leak checks and guarantees they are disarmed even
 * when the loop is abandoned by an exception (cycle-budget watchdog,
 * trapped panic): teardown of a half-simulated machine legitimately
 * destroys in-flight requests.
 */
struct RunLoopGuard
{
    RunLoopGuard()
    {
        mem::gFetchLeakCheck = true;
        // Inside the cycle loop every request destruction must follow
        // a retirement; partially simulated systems torn down outside
        // run() legitimately destroy in-flight requests.
        DCL1_CHECK_ONLY(check::ledger().setStrictDestroy(true));
    }

    ~RunLoopGuard()
    {
        DCL1_CHECK_ONLY(check::ledger().setStrictDestroy(false));
        mem::gFetchLeakCheck = false;
    }
};

} // anonymous namespace

void
GpuSystem::run(Cycle measure_cycles, Cycle warmup_cycles,
               const CycleHeartbeat &heartbeat, const CycleHook &on_cycle)
{
    RunLoopGuard guard;
    DCL1_PROF_SCOPE(Run);
    for (Cycle i = 0; i < warmup_cycles; ++i) {
        tickOnce();
        if (timeline_) {
            DCL1_PROF_SCOPE(Telemetry);
            timeline_->maybeSample(cycle_);
        }
        if ((i & 4095) == 4095) {
            DCL1_CHECK_ONLY({
                DCL1_PROF_SCOPE(Check);
                checkInvariants("warmup");
            });
            if (heartbeat)
                heartbeat(cycle_);
        }
    }
    resetStats();
    for (Cycle i = 0; i < measure_cycles; ++i) {
        tickOnce();
        if (timeline_) {
            DCL1_PROF_SCOPE(Telemetry);
            timeline_->maybeSample(cycle_);
        }
        if (on_cycle && !on_cycle(cycle_))
            break;
        if ((i & 4095) == 4095) {
            DCL1_CHECK_ONLY({
                DCL1_PROF_SCOPE(Check);
                checkInvariants("measure");
            });
            if (heartbeat)
                heartbeat(cycle_);
        }
    }
}

void
GpuSystem::resetStats()
{
    // The timeline must emit the tail of the pre-reset interval while
    // the counters it differences still hold their pre-reset values.
    if (timeline_)
        timeline_->flushTail(cycle_);

    statStart_ = cycle_;
    for (auto &core : cores_)
        core->statGroup().reset();
    for (auto &node : nodes_)
        node->statGroup().reset();
    for (auto &slice : slices_)
        slice->bank().statGroup().reset();
    for (auto &ch : channels_)
        ch->statGroup().reset();
    tracker_->resetStats();
    for (auto &net : nets_)
        net->resetStats();
    if (tlm_)
        tlm_->reset();

    // Counters just snapped back to zero: re-read every probe baseline
    // so the first measured interval differences against zero, not the
    // warmup totals (unsigned deltas would underflow otherwise).
    if (timeline_)
        timeline_->rebase(cycle_);
}

bool
GpuSystem::busy()
{
    for (auto &core : cores_)
        if (core->busy())
            return true;
    for (auto &node : nodes_)
        if (node->busy())
            return true;
    for (auto &slice : slices_)
        if (slice->busy())
            return true;
    for (auto &ch : channels_)
        if (ch->busy())
            return true;
    for (auto &net : nets_)
        if (net->busy())
            return true;
    return false;
}

bool
GpuSystem::drain(Cycle max_cycles)
{
    DCL1_PROF_SCOPE(Drain);
    for (auto &core : cores_)
        core->setIssueEnabled(false);
    Cycle waited = 0;
    while (busy() && waited < max_cycles) {
        tickOnce();
        ++waited;
    }
    for (auto &core : cores_)
        core->setIssueEnabled(true);
    const bool drained = !busy();
    if (drained) {
        // With the machine empty, every registered request must have
        // retired, and directory/tag state must agree exactly.
        checkInvariants("drain");
        DCL1_CHECK_ONLY(check::ledger().audit("drain"));
    }
    return drained;
}

void
GpuSystem::checkInvariants(const char *where)
{
#if DCL1_CHECK_ENABLED
    // Tag arrays vs. the replication directory: every valid line in a
    // tracked cache must be recorded as held by that cache, and the
    // directory must hold no phantom presence (total copy count equals
    // total tag occupancy).
    std::uint64_t occupancy = 0;
    auto check_bank = [&](const mem::CacheBank &bank) {
        if (bank.params().perfect)
            return;
        bank.tags().forEachValidLine([&](LineAddr line) {
            ++occupancy;
            if (!tracker_->holds(bank.cacheId(), line))
                panic("checkInvariants(%s): cache %u holds line %llx "
                      "missing from the replication directory",
                      where, bank.cacheId(),
                      static_cast<unsigned long long>(line));
        });
    };
    if (design_.topology == Topology::DcL1) {
        for (const auto &node : nodes_)
            check_bank(node->cache());
    } else {
        for (const auto &core : cores_)
            if (core->l1())
                check_bank(*core->l1());
    }
    if (tracker_->totalPresence() != occupancy)
        panic("checkInvariants(%s): replication directory records %llu "
              "copies but tag arrays hold %llu lines",
              where,
              static_cast<unsigned long long>(tracker_->totalPresence()),
              static_cast<unsigned long long>(occupancy));

    // NoC internal bookkeeping (crossbars also self-audit on their own
    // NoC-cycle cadence; this forces a sweep now).
    for (const auto &net : nets_)
        net->checkInvariants();
#else
    (void)where;
#endif // DCL1_CHECK_ENABLED
}

void
GpuSystem::addStatChildren(stats::StatGroup &root)
{
    for (auto &core : cores_)
        root.addChild(&core->statGroup());
    for (auto &node : nodes_)
        root.addChild(&node->statGroup());
    for (auto &slice : slices_)
        root.addChild(&slice->bank().statGroup());
    for (auto &ch : channels_)
        root.addChild(&ch->statGroup());
    root.addChild(&tracker_->statGroup());
    for (auto &net : nets_)
        net->addStatChildren(root);
    if (tlm_)
        root.addChild(&tlm_->statGroup());
}

void
GpuSystem::dumpStats(std::ostream &os)
{
    stats::StatGroup root("gpu");
    addStatChildren(root);
    root.dump(os);
}

void
GpuSystem::dumpStatsJson(std::ostream &os)
{
    stats::StatGroup root("gpu");
    addStatChildren(root);
    root.dumpJson(os);
    os << "\n";
}

void
GpuSystem::enableTimeline(Cycle interval, stats::LineSink sink)
{
    timeline_ = std::make_unique<stats::TimelineSampler>(interval,
                                                         std::move(sink));
    registerTimelineProbes();
    timeline_->start(cycle_);
}

void
GpuSystem::registerTimelineProbes()
{
    stats::TimelineSampler &tl = *timeline_;
    const bool dcl1 = design_.topology == Topology::DcL1;

    tl.addPerCycle("ipc", [this] {
        std::uint64_t sum = 0;
        for (auto &core : cores_)
            sum += core->instructions();
        return sum;
    });

    auto l1_misses = [this, dcl1] {
        std::uint64_t sum = 0;
        if (dcl1) {
            for (auto &node : nodes_)
                sum += node->cache().misses();
        } else {
            for (auto &core : cores_)
                if (core->l1())
                    sum += core->l1()->misses();
        }
        return sum;
    };
    auto l1_accesses = [this, dcl1] {
        std::uint64_t sum = 0;
        if (dcl1) {
            for (auto &node : nodes_)
                sum += node->cache().accesses();
        } else {
            for (auto &core : cores_)
                if (core->l1())
                    sum += core->l1()->accesses();
        }
        return sum;
    };
    tl.addRatio("l1_miss_rate", l1_misses, l1_accesses);

    // Interval replication ratio, through the dotted-path stat lookup
    // the tracker registers its counters under.
    const stats::Scalar *rep =
        tracker_->statGroup().findScalar("replicated_misses");
    const stats::Scalar *all = tracker_->statGroup().findScalar("misses");
    if (rep && all) {
        tl.addRatio(
            "repl_ratio", [rep] { return rep->value(); },
            [all] { return all->value(); });
    }

    tl.addRatio(
        "l2_miss_rate",
        [this] {
            std::uint64_t sum = 0;
            for (auto &slice : slices_)
                sum += slice->bank().misses();
            return sum;
        },
        [this] {
            std::uint64_t sum = 0;
            for (auto &slice : slices_)
                sum += slice->bank().accesses();
            return sum;
        });

    auto level_flits = [this](std::uint32_t level) {
        std::uint64_t sum = 0;
        forEachXbar([&](noc::Crossbar &x) {
            if (x.params().level == level)
                sum += x.totalFlits();
        });
        return sum;
    };
    bool has_noc1 = false;
    forEachXbar([&](noc::Crossbar &x) {
        has_noc1 = has_noc1 || x.params().level == 1;
    });
    if (has_noc1)
        tl.addPerCycle("noc1_flits", [level_flits] { return level_flits(1); });
    tl.addPerCycle("noc2_flits", [level_flits] { return level_flits(2); });

    auto mshr_in_use = [this, dcl1] {
        std::size_t sum = 0;
        if (dcl1) {
            for (auto &node : nodes_)
                sum += node->cache().mshrInUse();
        } else {
            for (auto &core : cores_)
                if (core->l1())
                    sum += core->l1()->mshrInUse();
        }
        return sum;
    };
    tl.addGauge("mshr_occupancy",
                [mshr_in_use] { return double(mshr_in_use()); });

    tl.addRatio(
        "dram_row_hit_rate",
        [this] {
            std::uint64_t sum = 0;
            for (auto &ch : channels_)
                if (const auto *h = ch->statGroup().findScalar("row_hits"))
                    sum += h->value();
            return sum;
        },
        [this] {
            std::uint64_t sum = 0;
            for (auto &ch : channels_) {
                if (const auto *h = ch->statGroup().findScalar("row_hits"))
                    sum += h->value();
                if (const auto *m =
                        ch->statGroup().findScalar("row_misses"))
                    sum += m->value();
            }
            return sum;
        });
    tl.addPerCycle("dram_access", [this] {
        std::uint64_t sum = 0;
        for (auto &ch : channels_)
            sum += ch->reads() + ch->writes();
        return sum;
    });
    auto dram_queue = [this] {
        std::size_t sum = 0;
        for (auto &ch : channels_)
            sum += ch->queueSize() + ch->inServiceSize();
        return sum;
    };
    tl.addGauge("dram_queue", [dram_queue] { return double(dram_queue()); });

    if (dcl1) {
        tl.addGaugeArray("node_q1", nodes_.size(), [this](std::size_t i) {
            return double(nodes_[i]->q1Size());
        });
        tl.addGaugeArray("node_q2", nodes_.size(), [this](std::size_t i) {
            return double(nodes_[i]->q2Size());
        });
        tl.addGaugeArray("node_q3", nodes_.size(), [this](std::size_t i) {
            return double(nodes_[i]->q3Size());
        });
        tl.addGaugeArray("node_q4", nodes_.size(), [this](std::size_t i) {
            return double(nodes_[i]->q4Size());
        });
    }

    // Per-interval utilization tracks for the trace exporter: already
    // decimated to one point per timeline interval.
    tl.setSampleHook([this, mshr_in_use, dram_queue](Cycle now, Cycle) {
        if (!trace_)
            return;
        trace_->counterEvent("mshr_occupancy", now, // lint: trace-ok
                             double(mshr_in_use()));
        trace_->counterEvent("dram_queue", now, // lint: trace-ok
                             double(dram_queue()));
    });
}

void
GpuSystem::enableLatency(std::uint32_t sample_every)
{
    tlm_ = std::make_unique<stats::LatencyAttribution>(
        sys_.seed ^ 0x9e3779b97f4a7c15ull, sample_every);
    for (auto &core : cores_)
        core->setTelemetry(tlm_.get());
}

void
GpuSystem::enableTrace(stats::TraceExport *trace)
{
    if (trace_ && stats::tlsTraceSink() == trace_)
        stats::tlsTraceSink() = nullptr;
    trace_ = trace;
    if (trace_)
        stats::tlsTraceSink() = trace_;
}

void
GpuSystem::finishTelemetry()
{
    if (timeline_)
        timeline_->finish(cycle_);
}

RunMetrics
GpuSystem::metrics()
{
    RunMetrics rm;
    rm.cycles = cycle_ - statStart_;
    if (rm.cycles == 0)
        return rm;

    for (const auto &core : cores_)
        rm.instructions += core->instructions();
    rm.ipc = double(rm.instructions) / double(rm.cycles);

    // (DC-)L1 cache statistics.
    auto account_bank = [&](const mem::CacheBank &bank) {
        rm.l1Accesses += bank.accesses();
        rm.l1Misses += bank.misses();
        const double util =
            double(bank.accesses()) / double(rm.cycles);
        rm.maxL1PortUtil = std::max(rm.maxL1PortUtil, util);
    };
    if (design_.topology == Topology::DcL1) {
        for (const auto &node : nodes_)
            account_bank(node->cache());
    } else {
        for (const auto &core : cores_)
            if (core->l1())
                account_bank(*core->l1());
    }
    rm.l1MissRate = rm.l1Accesses
                        ? double(rm.l1Misses) / double(rm.l1Accesses)
                        : 0.0;

    rm.replicationRatio = tracker_->replicationRatio();
    rm.avgReplicas = tracker_->avgReplicas();

    // Latency.
    std::uint64_t lat_sum = 0;
    std::uint64_t lat_cnt = 0;
    for (const auto &core : cores_) {
        lat_sum += core->readLatencySum();
        lat_cnt += core->readsCompleted();
    }
    rm.avgReadLatency = lat_cnt ? double(lat_sum) / double(lat_cnt) : 0.0;

    // NoC flit activity by level, and reply-link utilizations.
    bool has_noc1 = false;
    forEachXbar([&](noc::Crossbar &x) {
        if (x.params().level == 1) {
            has_noc1 = true;
            rm.noc1Flits += x.totalFlits();
        } else {
            rm.noc2Flits += x.totalFlits();
        }
    });
    auto max_out_util = [](noc::Network &net, std::uint32_t level) {
        double best = 0.0;
        for (const auto &x : net.xbars()) {
            if (x->params().level != level)
                continue;
            for (std::uint32_t o = 0; o < x->params().numOutputs; ++o)
                best = std::max(best, x->outputUtilization(o));
        }
        return best;
    };
    rm.maxMemReplyLinkUtil = max_out_util(memReply(), 2);
    // Without a level-1 stage (Baseline) the one reply hop out of L2
    // is also the hop into the cores.
    rm.maxCoreReplyLinkUtil = has_noc1 ? max_out_util(coreReply(), 1)
                                       : rm.maxMemReplyLinkUtil;

    for (const auto &slice : slices_) {
        rm.l2Accesses += slice->bank().accesses();
        rm.l2Misses += slice->bank().misses();
    }
    for (const auto &ch : channels_) {
        rm.dramReads += ch->reads();
        rm.dramWrites += ch->writes();
    }
    return rm;
}

} // namespace dcl1::core
