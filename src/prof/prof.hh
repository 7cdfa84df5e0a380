/**
 * @file
 * Host-performance phase profiler.
 *
 * The simulator measures the *simulated* machine everywhere else; this
 * band measures the *host*: where does a wall-clock second of dcl1run
 * actually go? The profiler is a hierarchical phase timer — RAII
 * ProfPhase scopes nest into a tree keyed by a fixed Phase taxonomy —
 * plus a handful of event counters (MemRequest allocations, quiescent
 * tick-loop iterations) that explain *why* a phase is hot.
 *
 * Wiring follows the engine's one-simulation-per-worker-thread model:
 * an enabled run owns one Profiler per job and publishes it through a
 * thread_local pointer (prof::tls()). Every hook site — the
 * DCL1_PROF_SCOPE / DCL1_PROF_COUNT macros sprinkled through the tick
 * paths — loads that pointer and branches; when no profiler is
 * installed the hook is one TLS load and a predicted-not-taken branch,
 * which is the whole overhead contract: profiling off must leave
 * stdout/CSV/stats byte-identical *and* the hot loop effectively
 * untouched.
 *
 * The profiler reads the host clock by design — that is its entire
 * purpose — and never feeds a simulated value: a Report goes to
 * stderr, JSON files, and jobs.jsonl, all channels the determinism
 * contract already excludes. The audited `lint: wallclock-ok`
 * annotations below are honoured under src/prof/ (and src/exec/) and
 * nowhere else; see dcl1lint rule R6.
 */

#ifndef DCL1_PROF_PROF_HH
#define DCL1_PROF_PROF_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dcl1::prof
{

/**
 * Fixed phase taxonomy. A closed enum — not free-form strings — keeps
 * the hot-path cost of entering a phase at one array index and makes
 * reports comparable across runs, designs and commits (perfbench
 * reports each layer's self time by phase).
 */
enum class Phase : std::uint8_t
{
    Build,     ///< GpuSystem construction (topology + component build)
    Run,       ///< the whole warmup+measure run loop
    Dram,      ///< DRAM channel ticks
    L2,        ///< L2 slice ticks
    Noc,       ///< crossbar/NoC arbitration, injection and ejection
    Core,      ///< SM core ticks (fetch/issue/mem-port drain)
    Node,      ///< DC-L1 node ticks (decoupled L1 bank + queues)
    Telemetry, ///< timeline sampling, latency attribution bookkeeping
    Check,     ///< invariant checker sweeps (heartbeat cadence)
    Drain,     ///< post-run quiesce/drain loops
};

/** Number of Phase values (array sizing). */
inline constexpr std::size_t kPhaseCount = 10;

/** Stable phase name (schema field in jobs.jsonl "prof" records). */
const char *phaseName(Phase phase);

/** Cheap occurrence counters attributed to the profiled job. */
enum class Counter : std::uint8_t
{
    MemReqAlloc,    ///< MemRequest heap allocations (makeRequest)
    TickCycles,     ///< tickOnce iterations observed
    QuiescentDram,  ///< DRAM channel ticks with an empty queue
    QuiescentXbar,  ///< crossbar ticks with nothing in flight
    QuiescentCore,  ///< core ticks while !busy() (drained/idle)
    QuiescentNode,  ///< DC-L1 node ticks while !busy()
};

/** Number of Counter values (array sizing). */
inline constexpr std::size_t kCounterCount = 6;

/** Stable counter name (schema field). */
const char *counterName(Counter counter);

/**
 * One flattened node of a finished profile: the tree in pre-order,
 * self time already computed. Plain data so a Report can cross thread
 * and process boundaries (JobResult, jobs.jsonl) by value.
 */
struct ReportNode
{
    std::uint8_t depth = 0; ///< 0 = root phase
    Phase phase = Phase::Build;
    std::uint64_t count = 0;   ///< times the scope was entered
    std::uint64_t totalNs = 0; ///< inclusive wall time
    std::uint64_t selfNs = 0;  ///< totalNs minus direct children
};

/**
 * Copyable result of one profiled job.
 *
 * `wallNs` is the externally measured wall time of the whole job (set
 * by the JobRunner / dcl1run, which bracket the job more tightly than
 * any phase can); coverage() reports how much of it the phase tree
 * explains — the acceptance contract is >= 95 %.
 */
struct Report
{
    bool enabled = false;
    std::vector<ReportNode> nodes; ///< pre-order phase tree
    std::uint64_t counters[kCounterCount] = {};
    std::uint64_t wallNs = 0;

    /** Wall time attributed to root phases (== sum of all self). */
    std::uint64_t coveredNs() const;

    /** coveredNs / wallNs in [0, 1]; 0 when wallNs is unset. */
    double coverage() const;

    /**
     * Human table: one row per node (indented by depth), total / self
     * / share-of-wall columns, then the non-zero counters. Written to
     * @p out (stderr for tools) — never stdout, which belongs to the
     * deterministic simulated results.
     */
    void writeTable(std::FILE *out) const;

    /**
     * Compact JSON object (no trailing newline):
     * {"schema":"dcl1-prof-v1","wall_ns":...,"coverage":...,
     *  "phases":[{"phase":...,"depth":...,"count":...,"total_ns":...,
     *             "self_ns":...},...],"counters":{...}}
     * Embeddable as a jobs.jsonl field or dumpable to --profile=FILE.
     */
    std::string json() const;
};

/**
 * Per-thread hierarchical phase timer. Not thread-safe — by contract
 * a Profiler is driven by exactly one simulation thread through the
 * tls() pointer; the JobRunner installs a fresh one per job attempt.
 */
class Profiler
{
  public:
    Profiler();

    /** Open @p phase as a child of the current scope. */
    void enter(Phase phase);

    /** Close the current scope, charging it @p ns of wall time. */
    void exit(std::uint64_t ns);

    /** Bump @p counter by @p n. */
    void
    count(Counter counter, std::uint64_t n = 1)
    {
        counters_[static_cast<std::size_t>(counter)] += n;
    }

    /**
     * Flatten the tree into a Report. Callable mid-run (open scopes
     * contribute their completed children only); wallNs is left 0 for
     * the caller to fill in from its own bracket.
     */
    Report report() const;

  private:
    struct Node
    {
        Phase phase = Phase::Build;
        std::int32_t parent = -1;
        std::int32_t child[kPhaseCount];
        std::uint64_t count = 0;
        std::uint64_t totalNs = 0;
    };

    std::int32_t childOf(std::int32_t parent, Phase phase);
    void flatten(std::int32_t index, std::uint8_t depth,
                 Report &out) const;

    std::vector<Node> nodes_;        ///< [0] is the synthetic root
    std::vector<std::int32_t> stack_; ///< open-scope node indices
    std::uint64_t counters_[kCounterCount] = {};
};

namespace detail
{
/** Backing store for tls(); install through TlsGuard only. */
extern thread_local Profiler *tlsProfiler;
} // namespace detail

/**
 * The profiler observing this thread's simulation; null (profiling
 * off) by default. The JobRunner and dcl1run install one per job via
 * TlsGuard; hook sites consult it through the macros below. Inline so
 * a disabled hook compiles to one TLS load and a branch.
 */
inline Profiler *tls() { return detail::tlsProfiler; }

/** True when a profiler is installed on this thread. */
inline bool active() { return tls() != nullptr; }

/** RAII install/restore of the thread's profiler pointer. */
class TlsGuard
{
  public:
    explicit TlsGuard(Profiler *profiler);
    ~TlsGuard();

    TlsGuard(const TlsGuard &) = delete;
    TlsGuard &operator=(const TlsGuard &) = delete;

  private:
    Profiler *saved_;
};

/**
 * RAII phase scope. When no profiler is installed on the thread the
 * constructor is one TLS load + branch and the destructor one branch —
 * cheap enough for per-cycle hook sites.
 */
class ProfPhase
{
    using HostClock = std::chrono::steady_clock; // lint: wallclock-ok

  public:
    explicit ProfPhase(Phase phase) : prof_(tls())
    {
        if (prof_) {
            prof_->enter(phase);
            start_ = HostClock::now();
        }
    }

    /**
     * Close the scope before end-of-block (idempotent). Lets one
     * function time consecutive sections without re-indenting each
     * into its own block.
     */
    void
    stop()
    {
        if (prof_) {
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    HostClock::now() - start_);
            prof_->exit(static_cast<std::uint64_t>(ns.count()));
            prof_ = nullptr;
        }
    }

    ~ProfPhase() { stop(); }

    ProfPhase(const ProfPhase &) = delete;
    ProfPhase &operator=(const ProfPhase &) = delete;

  private:
    Profiler *prof_;
    HostClock::time_point start_;
};

} // namespace dcl1::prof

// clang-format off
#define DCL1_PROF_CAT2(a, b) a##b
#define DCL1_PROF_CAT(a, b) DCL1_PROF_CAT2(a, b)

/** Time the rest of the enclosing scope as prof::Phase::name. */
#define DCL1_PROF_SCOPE(name)                                          \
    ::dcl1::prof::ProfPhase DCL1_PROF_CAT(dcl1_prof_scope_, __LINE__)( \
        ::dcl1::prof::Phase::name)

/** Bump prof::Counter::name by n when profiling is on. */
#define DCL1_PROF_COUNT(name, n)                                       \
    do {                                                               \
        if (::dcl1::prof::Profiler *dcl1_prof_p = ::dcl1::prof::tls()) \
            dcl1_prof_p->count(::dcl1::prof::Counter::name, (n));      \
    } while (0)
// clang-format on

#endif // DCL1_PROF_PROF_HH
