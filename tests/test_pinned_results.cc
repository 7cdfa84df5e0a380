/**
 * @file
 * Simulated results pinned across commits.
 *
 * Re-simulates seed slot 0 of the benchmark's pinned fig14 grid
 * (perfbench/expected/paper_grid.tsv: six designs x every catalog app
 * at a short budget) and requires every cell's stat-tree digest and
 * every RunMetrics field to match the table exactly. The table is only
 * read here; `python3 perfbench/run.py --update-expected` rewrites it.
 * Slot s of the table ran with SystemConfig::seed = s + 1.
 *
 * One test per design, so `ctest -j` spreads the grid.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "core/gpu_system.hh"
#include "exec/determinism.hh"
#include "workload/app_catalog.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::core;

/** One pinned cell: app name and the expected value of each column. */
struct PinnedCell
{
    std::string app;
    std::map<std::string, std::string> expect;
};

/** Slot 0 of the pinned grid, as the header describes it. */
struct PinnedGrid
{
    Cycle warmup = 0;
    Cycle measure = 0;
    std::map<std::string, std::vector<PinnedCell>> byDesign;
};

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    std::string field;
    while (std::getline(in, field, sep))
        out.push_back(field);
    return out;
}

/** Value of "key=value" among the header's space-separated words. */
std::string
headerField(const std::string &header, const std::string &key)
{
    for (const std::string &word : split(header, ' '))
        if (word.rfind(key + "=", 0) == 0)
            return word.substr(key.size() + 1);
    return "";
}

/** Parse the table; an empty grid (with @p why set) on any problem. */
PinnedGrid
loadGrid(std::string &why)
{
    const std::string path =
        std::string(DCL1_SOURCE_DIR) + "/perfbench/expected/paper_grid.tsv";
    PinnedGrid grid;
    std::ifstream in(path);
    std::string header;
    if (!in || !std::getline(in, header)) {
        why = "cannot read " + path;
        return grid;
    }
    grid.warmup = std::stoull(headerField(header, "warmup"));
    grid.measure = std::stoull(headerField(header, "measure"));
    // columns=slot,cell,digest,<metric>,...: the metrics share the
    // fourth tab-separated field.
    const std::vector<std::string> columns =
        split(headerField(header, "columns"), ',');
    if (columns.size() < 4 || columns[2] != "digest") {
        why = "unexpected header: " + header;
        return grid;
    }
    const std::vector<std::string> metric_cols(columns.begin() + 3,
                                               columns.end());

    std::string line;
    while (std::getline(in, line)) {
        const std::vector<std::string> fields = split(line, '\t');
        if (fields.size() != 4) {
            why = "malformed row: " + line;
            grid.byDesign.clear();
            return grid;
        }
        if (fields[0] != "0")
            continue;
        const std::size_t slash = fields[1].find('/');
        const std::vector<std::string> values = split(fields[3], ',');
        if (slash == std::string::npos ||
            values.size() != metric_cols.size()) {
            why = "malformed row: " + line;
            grid.byDesign.clear();
            return grid;
        }
        PinnedCell cell;
        cell.app = fields[1].substr(slash + 1);
        cell.expect["digest"] = fields[2];
        for (std::size_t i = 0; i < values.size(); ++i)
            cell.expect[metric_cols[i]] = values[i];
        grid.byDesign[fields[1].substr(0, slash)].push_back(
            std::move(cell));
    }
    return grid;
}

/** Every RunMetrics field, keyed by its column name, at %.17g. */
std::map<std::string, std::string>
formatted(const RunMetrics &rm, std::uint64_t digest)
{
    auto u = [](std::uint64_t v) { return std::to_string(v); };
    auto d = [](double v) { return csprintf("%.17g", v); };
    return {
        {"digest", csprintf("%016llx",
                            static_cast<unsigned long long>(digest))},
        {"cycles", u(rm.cycles)},
        {"instructions", u(rm.instructions)},
        {"ipc", d(rm.ipc)},
        {"l1Accesses", u(rm.l1Accesses)},
        {"l1Misses", u(rm.l1Misses)},
        {"l1MissRate", d(rm.l1MissRate)},
        {"replicationRatio", d(rm.replicationRatio)},
        {"avgReplicas", d(rm.avgReplicas)},
        {"maxL1PortUtil", d(rm.maxL1PortUtil)},
        {"maxCoreReplyLinkUtil", d(rm.maxCoreReplyLinkUtil)},
        {"maxMemReplyLinkUtil", d(rm.maxMemReplyLinkUtil)},
        {"avgReadLatency", d(rm.avgReadLatency)},
        {"noc1Flits", u(rm.noc1Flits)},
        {"noc2Flits", u(rm.noc2Flits)},
        {"l2Accesses", u(rm.l2Accesses)},
        {"l2Misses", u(rm.l2Misses)},
        {"dramReads", u(rm.dramReads)},
        {"dramWrites", u(rm.dramWrites)},
    };
}

class PinnedGridTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PinnedGridTest, Slot0MatchesTable)
{
    std::string why;
    const PinnedGrid grid = loadGrid(why);
    ASSERT_TRUE(why.empty()) << why;

    const auto it = grid.byDesign.find(GetParam());
    ASSERT_NE(it, grid.byDesign.end()) << "no pinned cells for "
                                       << GetParam();
    ASSERT_EQ(it->second.size(), workload::appCatalog().size());

    SystemConfig sys;
    sys.seed = 1; // slot 0
    const DesignConfig design = designByName(GetParam());
    for (const PinnedCell &cell : it->second) {
        GpuSystem gpu(sys, design, workload::appByName(cell.app).params);
        gpu.run(grid.measure, grid.warmup);
        const std::uint64_t digest = exec::statDigest(gpu);
        const std::map<std::string, std::string> got =
            formatted(gpu.metrics(), digest);
        for (const auto &[column, want] : cell.expect) {
            const auto g = got.find(column);
            ASSERT_NE(g, got.end()) << "unknown pinned column " << column;
            EXPECT_EQ(g->second, want)
                << GetParam() << "/" << cell.app << " " << column;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, PinnedGridTest,
    ::testing::Values("Baseline", "Pr40", "Sh40", "Sh40+C10",
                      "Sh40+C10+Boost", "CDXBar"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // anonymous namespace
