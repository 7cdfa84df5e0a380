#include "exec/crash_record.hh"

#include <cctype>
#include <fstream>
#include <limits>

#include "check/request_ledger.hh"
#include "common/env.hh"
#include "common/log.hh"
#include "core/gpu_system.hh"
#include "exec/atomic_file.hh"
#include "exec/result_sink.hh"
#include "exec/run_manifest.hh"

namespace dcl1::exec
{

std::string
crashSnapshotJson(core::GpuSystem &gpu)
{
    std::string state = csprintf(
        "\"state\":{\"cycle\":%llu",
        static_cast<unsigned long long>(gpu.cycle()));

    // DC-L1 node queue depths (Q1..Q4): the first thing to look at
    // for a deadlock or backpressure bug.
    if (!gpu.nodes().empty()) {
        state += ",\"nodes\":[";
        for (std::size_t i = 0; i < gpu.nodes().size(); ++i) {
            const auto &node = *gpu.nodes()[i];
            state += csprintf(
                "%s{\"q1\":%zu,\"q2\":%zu,\"q3\":%zu,\"q4\":%zu}",
                i == 0 ? "" : ",", node.q1Size(), node.q2Size(),
                node.q3Size(), node.q4Size());
        }
        state += "]";
    }

    state += ",\"dram\":[";
    for (std::size_t i = 0; i < gpu.channels().size(); ++i) {
        const auto &ch = *gpu.channels()[i];
        state += csprintf("%s{\"queued\":%zu,\"in_service\":%zu}",
                          i == 0 ? "" : ",", ch.queueSize(),
                          ch.inServiceSize());
    }
    state += "]}";

    // Request-ledger tail (DCL1_CHECK builds): the last lifecycle
    // events before death, straight from the auditing machinery.
    if (check::checksCompiledIn) {
        state += csprintf(",\"ledger\":{\"live\":%zu,\"registered\":"
                          "%llu,\"retired\":%llu,\"recent\":%s}",
                          check::ledger().liveCount(),
                          static_cast<unsigned long long>(
                              check::ledger().registered()),
                          static_cast<unsigned long long>(
                              check::ledger().retired()),
                          check::ledger().recentEventsJson().c_str());
    }
    return state;
}

std::string
crashRecordName(std::size_t index, const std::string &label)
{
    std::string safe;
    for (const char c : label)
        safe += (std::isalnum(static_cast<unsigned char>(c)) ||
                 c == '-' || c == '+' || c == '.')
                    ? c
                    : '_';
    return csprintf("job%03zu-%s.json", index, safe.c_str());
}

void
writeCrashRecord(const std::string &dir, const JobResult &result,
                 const std::string &context)
{
    try {
        ensureDirectory(dir);
        AtomicFileWriter out(dir + "/" +
                             crashRecordName(result.index, result.label));
        out.stream() << "{"
                     << csprintf(
                            "\"job\":%zu,\"label\":\"%s\",\"kind\":"
                            "\"%s\",\"attempts\":%u,\"quarantined\":%s,"
                            "\"error\":\"%s\"",
                            result.index,
                            jsonEscape(result.label).c_str(),
                            failureKindName(result.kind), result.attempts,
                            result.quarantined ? "true" : "false",
                            jsonEscape(result.error).c_str());
        if (!context.empty())
            out.stream() << "," << context;
        out.stream() << "}\n";
        out.commit();
    } catch (const std::exception &e) {
        // Forensics best-effort: never let a crash-record failure mask
        // (or upgrade) the original job failure.
        warn("crash record for job %zu not written: %s", result.index,
             e.what());
    }
}

std::string
crashConfigJson(const CrashConfig &cfg)
{
    const bool trace = !cfg.trace.empty();
    return csprintf(
        "\"design\":\"%s\",\"%s\":\"%s\",\"cores\":%u,\"slices\":%u,"
        "\"channels\":%u,\"seed\":%llu,\"measure\":%llu,\"warmup\":%llu",
        jsonEscape(cfg.design).c_str(), trace ? "trace" : "app",
        jsonEscape(trace ? cfg.trace : cfg.app).c_str(), cfg.cores,
        cfg.slices, cfg.channels, static_cast<unsigned long long>(cfg.seed),
        static_cast<unsigned long long>(cfg.measure),
        static_cast<unsigned long long>(cfg.warmup));
}

CrashConfig
loadCrashRecord(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open crash record '%s'", path.c_str());
    std::string text;
    for (std::string line; std::getline(in, line);) {
        text += line;
        text += '\n';
    }

    CrashConfig cfg;
    const bool has_app = jsonFieldString(text, "app", cfg.app);
    const bool has_trace = jsonFieldString(text, "trace", cfg.trace);
    if (!jsonFieldString(text, "design", cfg.design) ||
        (!has_app && !has_trace))
        fatal("crash record '%s' carries no replayable config "
              "(jobs must cooperate via JobContext::setCrashContext)",
              path.c_str());
    // Every number must parse in full and in range, with the bounds
    // dcl1run puts on the matching flag: "measure":garbage is a broken
    // record, not a 0-cycle replay.
    constexpr std::int64_t max_u32 =
        std::numeric_limits<std::uint32_t>::max();
    constexpr std::int64_t max_i64 =
        std::numeric_limits<std::int64_t>::max();
    auto num = [&](const char *field, std::uint64_t fallback,
                   std::int64_t min_value, std::int64_t max_value) {
        if (text.find(csprintf("\"%s\":", field)) == std::string::npos)
            return fallback;
        const std::string name =
            csprintf("crash record '%s' field %s", path.c_str(), field);
        return static_cast<std::uint64_t>(
            parseEnvInt(name.c_str(), jsonFieldRaw(text, field).c_str(),
                        min_value, max_value));
    };
    cfg.cores =
        static_cast<std::uint32_t>(num("cores", cfg.cores, 1, max_u32));
    cfg.slices =
        static_cast<std::uint32_t>(num("slices", cfg.slices, 1, max_u32));
    cfg.channels = static_cast<std::uint32_t>(
        num("channels", cfg.channels, 1, max_u32));
    cfg.seed = num("seed", cfg.seed, 0, max_i64);
    cfg.measure = num("measure", cfg.measure, 1, max_i64);
    cfg.warmup = num("warmup", cfg.warmup, 0, max_i64);
    jsonFieldString(text, "label", cfg.label);
    jsonFieldString(text, "error", cfg.error);
    return cfg;
}

} // namespace dcl1::exec
