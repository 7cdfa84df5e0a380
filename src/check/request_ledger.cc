#include "check/request_ledger.hh"

#include "common/log.hh"
#include "mem/request.hh"

namespace dcl1::check
{

namespace
{

constexpr unsigned
bit(Custody c)
{
    return 1u << static_cast<unsigned>(c);
}

// The move table reads both networks as one stage, and every cache
// level as one stage.
constexpr unsigned kNoc = bit(Custody::NocReq) | bit(Custody::NocReply);
constexpr unsigned kLevel = bit(Custody::Cache) | bit(Custody::L2);
/** A reply retires at a core (from a NoC or straight out of a private
 *  L1); a writeback where it is absorbed (L2 or DRAM). */
constexpr unsigned kRetireFrom = kNoc | kLevel | bit(Custody::Dram);

/** Allowed moves: destinations per source custody, in enum order. */
constexpr std::array<unsigned, stats::kNumCustody> kMoves = {
    kNoc | kLevel, // Issue: into a NoC, or straight into a private L1
    kNoc | kLevel, // NocReq: hop between networks, or land at a level
    // Cache and L2: between a node's queues and its bank, onward to a
    // NoC or a memory channel, or merged into an MSHR entry.
    kLevel | kNoc | bit(Custody::Dram) | bit(Custody::Mshr),
    kLevel | kNoc | bit(Custody::Dram) | bit(Custody::Mshr),
    kLevel,        // Dram: a DRAM reply is collected by its L2 slice
    kNoc | kLevel, // NocReply: as NocReq
    kLevel,        // Mshr: only a fill releases merged targets
    0,             // Retired: any move is use-after-retire
};

} // anonymous namespace

RequestLedger &
RequestLedger::instance()
{
    // Thread-local, not process-wide: the execution engine runs
    // independent simulations on concurrent worker threads, and a
    // GpuSystem lives entirely on the thread that constructed it, so
    // each thread auditing only its own requests is exactly the
    // isolation the ledger wants. Requests never migrate threads.
    static thread_local RequestLedger the_ledger;
    return the_ledger;
}

void
RequestLedger::record(std::uint8_t kind, std::uint64_t seq,
                      std::uint64_t addr, Custody from, Custody to)
{
    Event &e = events_[eventCount_ % kEventRing];
    e.seq = seq;
    e.addr = addr;
    e.from = from;
    e.to = to;
    e.kind = kind;
    ++eventCount_;
}

void
RequestLedger::onCreate(mem::MemRequest &req, Cycle now, Custody at)
{
    if (req.chkSeq != 0)
        panic("ledger: request %llu registered twice",
              static_cast<unsigned long long>(req.chkSeq));
    req.chkSeq = ++nextSeq_;
    ++registered_;
    ++entered_[static_cast<std::size_t>(at)];
    entries_.emplace(req.chkSeq, Entry{at, now});
    record(0, req.chkSeq, req.addr, at, at);
}

void
RequestLedger::onTransition(const mem::MemRequest &req, Custody to)
{
    if (req.chkSeq == 0)
        return;
    auto it = entries_.find(req.chkSeq);
    if (it == entries_.end())
        panic("ledger: transition of unknown request %llu (addr %llx)",
              static_cast<unsigned long long>(req.chkSeq),
              static_cast<unsigned long long>(req.addr));
    Entry &e = it->second;
    if (!(kMoves[static_cast<std::size_t>(e.custody)] & bit(to)))
        panic("ledger: illegal transition %s -> %s "
              "(request %llu, addr %llx, core %u, %s)",
              stats::custodyName(e.custody), stats::custodyName(to),
              static_cast<unsigned long long>(req.chkSeq),
              static_cast<unsigned long long>(req.addr), req.core,
              req.isReply ? "reply" : "request");
    record(1, req.chkSeq, req.addr, e.custody, to);
    e.custody = to;
    ++entered_[static_cast<std::size_t>(to)];
}

void
RequestLedger::onRetire(const mem::MemRequest &req)
{
    if (req.chkSeq == 0)
        return;
    auto it = entries_.find(req.chkSeq);
    if (it == entries_.end())
        panic("ledger: retiring unknown request %llu",
              static_cast<unsigned long long>(req.chkSeq));
    const Custody from = it->second.custody;
    if (from == Custody::Retired)
        panic("ledger: double retire of request %llu (addr %llx)",
              static_cast<unsigned long long>(req.chkSeq),
              static_cast<unsigned long long>(req.addr));
    // A request still merged in an MSHR, or one that never left its
    // core, must not be consumed.
    if (!(kRetireFrom & bit(from)))
        panic("ledger: retire from illegal stage %s "
              "(request %llu, addr %llx)",
              stats::custodyName(from),
              static_cast<unsigned long long>(req.chkSeq),
              static_cast<unsigned long long>(req.addr));
    record(2, req.chkSeq, req.addr, from, Custody::Retired);
    it->second.custody = Custody::Retired;
    ++entered_[static_cast<std::size_t>(Custody::Retired)];
}

void
RequestLedger::onDestroy(const mem::MemRequest &req)
{
    if (req.chkSeq == 0)
        return;
    auto it = entries_.find(req.chkSeq);
    if (it == entries_.end())
        return; // registered in a previous, since cleared, session
    if (strictDestroy_ && it->second.custody != Custody::Retired)
        panic("ledger: request %llu leaked (destroyed in stage %s, "
              "addr %llx, core %u)",
              static_cast<unsigned long long>(req.chkSeq),
              stats::custodyName(it->second.custody),
              static_cast<unsigned long long>(req.addr), req.core);
    entries_.erase(it);
}

std::size_t
RequestLedger::liveCount() const
{
    std::size_t live = 0;
    // Audit path only; never called from a ticked code path.
    for (const auto &kv : entries_) // lint: unordered-iter-ok
        if (kv.second.custody != Custody::Retired)
            ++live;
    return live;
}

void
RequestLedger::audit(const char *where) const
{
    const std::size_t live = liveCount();
    if (live != 0) {
        // Find one survivor to make the report actionable.
        for (const auto &kv : entries_) { // lint: unordered-iter-ok
            if (kv.second.custody != Custody::Retired) {
                panic("ledger audit (%s): %zu request(s) still live; "
                      "e.g. seq %llu stuck in stage %s since cycle %llu",
                      where, live,
                      static_cast<unsigned long long>(kv.first),
                      stats::custodyName(kv.second.custody),
                      static_cast<unsigned long long>(
                          kv.second.createdAt));
            }
        }
    }
}

std::string
RequestLedger::recentEventsJson() const
{
    static const char *const kind_names[] = {"create", "transition",
                                             "retire"};
    std::string out = "[";
    const std::uint64_t count =
        eventCount_ < kEventRing ? eventCount_ : kEventRing;
    const std::uint64_t first = eventCount_ - count;
    for (std::uint64_t i = 0; i < count; ++i) {
        const Event &e = events_[(first + i) % kEventRing];
        out += csprintf(
            "%s{\"seq\":%llu,\"ev\":\"%s\",\"from\":\"%s\","
            "\"to\":\"%s\",\"addr\":\"0x%llx\"}",
            i == 0 ? "" : ",", static_cast<unsigned long long>(e.seq),
            kind_names[e.kind], stats::custodyName(e.from),
            stats::custodyName(e.to),
            static_cast<unsigned long long>(e.addr));
    }
    out += "]";
    return out;
}

void
RequestLedger::clear()
{
    entries_.clear();
    eventCount_ = 0;
}

} // namespace dcl1::check
