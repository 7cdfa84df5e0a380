#include "workload/app_catalog.hh"

#include <algorithm>

#include "common/log.hh"

namespace dcl1::workload
{

namespace
{

/** Builder helpers keep the table readable. */
WorkloadParams
base(const char *name, const char *suite)
{
    WorkloadParams p;
    p.name = name;
    p.suite = suite;
    return p;
}

AppInfo
sensitive(WorkloadParams p)
{
    return AppInfo{std::move(p), /*replicationSensitive=*/true,
                   /*poorUnderSh40=*/false};
}

AppInfo
insensitive(WorkloadParams p, bool poor = false)
{
    return AppInfo{std::move(p), /*replicationSensitive=*/false, poor};
}

std::vector<AppInfo>
buildCatalog()
{
    std::vector<AppInfo> apps;

    // ---------------- replication-sensitive (12) ----------------
    // Tango CNNs: layer weights shared by every core; working set a few
    // times one L1 but well under the aggregate (paper: 86-95 %
    // replication, ~99 % miss-rate reduction with a single L1).
    {
        auto p = base("T-AlexNet", "T");
        p.warpsPerCore = 40;
        p.memRatio = 0.45;
        p.sharedLines = 950;
        p.sharedFrac = 0.97;
        p.coalescedAccesses = 2;
        apps.push_back(sensitive(p));
    }
    {
        auto p = base("T-ResNet", "T");
        p.warpsPerCore = 40;
        p.memRatio = 0.42;
        p.sharedLines = 1000;
        p.sharedFrac = 0.94;
        p.coalescedAccesses = 2;
        apps.push_back(sensitive(p));
    }
    {
        auto p = base("T-SqueezeNet", "T");
        p.warpsPerCore = 40;
        p.memRatio = 0.40;
        p.sharedLines = 850;
        p.sharedFrac = 0.92;
        p.coalescedAccesses = 2;
        apps.push_back(sensitive(p));
    }
    {
        auto p = base("T-CifarNet", "T");
        p.warpsPerCore = 32;
        p.memRatio = 0.44;
        p.sharedLines = 700;
        p.sharedFrac = 0.90;
        p.coalescedAccesses = 2;
        apps.push_back(sensitive(p));
    }
    // Graph traversal: large shared frontier, divergent accesses.
    {
        auto p = base("C-BFS", "C");
        p.memRatio = 0.50;
        p.sharedLines = 1600;
        p.sharedFrac = 0.75;
        p.coalescedAccesses = 4;
        p.atomicFrac = 0.01;
        apps.push_back(sensitive(p));
    }
    {
        auto p = base("R-SRAD", "R");
        p.memRatio = 0.35;
        p.sharedLines = 1200;
        p.sharedFrac = 0.60;
        p.coalescedAccesses = 2;
        apps.push_back(sensitive(p));
    }
    {
        auto p = base("S-SPMV", "S");
        p.memRatio = 0.45;
        p.sharedLines = 1100;
        p.sharedFrac = 0.65;
        p.coalescedAccesses = 3;
        apps.push_back(sensitive(p));
    }
    // Footprint close to the full aggregate L1: only the fully shared
    // Sh40 dedups enough (paper: S-Reduction loses with Sh40+C10,
    // P-SYRK 13 % with C10 vs 2.4x with Sh40).
    {
        auto p = base("S-Reduction", "S");
        p.memRatio = 0.40;
        p.sharedLines = 9000;
        p.sharedFrac = 0.90;
        p.coalescedAccesses = 2;
        apps.push_back(sensitive(p));
    }
    {
        auto p = base("P-SYRK", "P");
        p.memRatio = 0.45;
        p.sharedLines = 7800;
        p.sharedFrac = 0.85;
        p.coalescedAccesses = 2;
        apps.push_back(sensitive(p));
    }
    // Matrix-multiply family: hot tile concentrated on few 256 B chunks
    // (partition camping under Sh40), plus a large cold shared region.
    {
        auto p = base("P-2MM", "P");
        p.memRatio = 0.45;
        p.sharedLines = 900;
        p.sharedFrac = 0.80;
        p.sharedPattern = Pattern::HotCold;
        p.hotLines = 8;
        p.hotProb = 0.50;
        p.coalescedAccesses = 2;
        apps.push_back(sensitive(p));
    }
    {
        auto p = base("F-2MM", "F"); // the paper's F-2MIM
        p.memRatio = 0.45;
        p.sharedLines = 1000;
        p.sharedFrac = 0.80;
        p.sharedPattern = Pattern::HotCold;
        p.hotLines = 6;
        p.hotProb = 0.50;
        p.coalescedAccesses = 2;
        apps.push_back(sensitive(p));
    }
    // Bandwidth-sensitive: high hit rate under shared DC-L1s turns
    // NoC#1 into the bottleneck; only the Boost variant recovers it.
    {
        auto p = base("P-3DCONV", "P");
        p.memRatio = 0.55;
        p.sharedLines = 900;
        p.sharedFrac = 0.80;
        p.coalescedAccesses = 1;
        p.accessBytes = 128;
        p.writeFrac = 0.03;
        apps.push_back(sensitive(p));
    }

    // ---------------- replication-insensitive (16) ----------------
    // Poor performers under Sh40 (paper Fig. 9 / 13a):
    {
        // High local hit rate + low occupancy: cannot hide the
        // decoupled-L1 latency.
        auto p = base("C-NN", "C");
        p.warpsPerCore = 8;
        p.memRatio = 0.50;
        p.writeFrac = 0.02;
        p.privateLines = 96;
        p.privatePattern = Pattern::Uniform;
        apps.push_back(insensitive(p, /*poor=*/true));
    }
    {
        // Hot scene data on a handful of chunks: partition camping.
        auto p = base("C-RAY", "C");
        p.memRatio = 0.40;
        p.writeFrac = 0.01;
        p.sharedLines = 64;
        p.sharedFrac = 0.55;
        p.sharedPattern = Pattern::HotCold;
        p.hotLines = 8;
        p.hotProb = 0.95;
        p.privateLines = 1200;
        p.privateReuse = 0.85;
        apps.push_back(insensitive(p, /*poor=*/true));
    }
    {
        auto p = base("P-3MM", "P");
        p.memRatio = 0.40;
        p.sharedLines = 96;
        p.sharedFrac = 0.55;
        p.sharedPattern = Pattern::HotCold;
        p.hotLines = 12;
        p.hotProb = 0.90;
        p.privateLines = 1000;
        p.privateReuse = 0.80;
        apps.push_back(insensitive(p, /*poor=*/true));
    }
    {
        auto p = base("P-GEMM", "P");
        p.memRatio = 0.40;
        p.sharedLines = 128;
        p.sharedFrac = 0.50;
        p.sharedPattern = Pattern::HotCold;
        p.hotLines = 8;
        p.hotProb = 0.92;
        p.privateLines = 1200;
        p.privateReuse = 0.80;
        apps.push_back(insensitive(p, /*poor=*/true));
    }
    {
        // L1-bandwidth bound: high hit rate, very high intensity.
        auto p = base("P-2DCONV", "P");
        p.memRatio = 0.50;
        p.privateLines = 4000;
        p.privateReuse = 0.95;
        p.coalescedAccesses = 1;
        p.accessBytes = 128;
        apps.push_back(insensitive(p, /*poor=*/true));
    }
    // Neutral / latency-tolerant applications:
    {
        auto p = base("C-BLK", "C");
        p.memRatio = 0.05;
        p.privateLines = 8000;
        p.coalescedAccesses = 1;
        apps.push_back(insensitive(p));
    }
    {
        auto p = base("R-LUD", "R");
        p.memRatio = 0.12;
        p.sharedLines = 200;
        p.sharedFrac = 0.15;
        p.privateLines = 3000;
        p.privateReuse = 0.30;
        apps.push_back(insensitive(p));
    }
    {
        // Work-distribution imbalance: hot cores thrash their private
        // L1; a shared organization gives them the aggregate capacity.
        auto p = base("R-SC", "R");
        p.memRatio = 0.45;
        p.privateLines = 70;
        p.privatePattern = Pattern::Uniform;
        p.hotCoreFactor = 4.0;
        apps.push_back(insensitive(p));
    }
    {
        auto p = base("R-BP", "R");
        p.memRatio = 0.12;
        p.privateLines = 4000;
        p.privateReuse = 0.60;
        apps.push_back(insensitive(p));
    }
    {
        auto p = base("R-HS", "R");
        p.memRatio = 0.10;
        p.privateLines = 2500;
        p.privateReuse = 0.70;
        apps.push_back(insensitive(p));
    }
    {
        auto p = base("R-GAUSS", "R");
        p.memRatio = 0.10;
        p.privateLines = 3500;
        p.privateReuse = 0.50;
        apps.push_back(insensitive(p));
    }
    {
        auto p = base("R-NW", "R");
        p.warpsPerCore = 24;
        p.memRatio = 0.08;
        p.privateLines = 2000;
        p.privateReuse = 0.50;
        apps.push_back(insensitive(p));
    }
    {
        auto p = base("S-Scan", "S");
        p.memRatio = 0.07;
        p.privateLines = 6000;
        p.coalescedAccesses = 1;
        apps.push_back(insensitive(p));
    }
    {
        auto p = base("S-MD", "S");
        p.memRatio = 0.15;
        p.sharedLines = 300;
        p.sharedFrac = 0.20;
        p.privateLines = 1500;
        p.privatePattern = Pattern::Uniform;
        apps.push_back(insensitive(p));
    }
    {
        auto p = base("C-LPS", "C");
        p.memRatio = 0.10;
        p.privateLines = 3000;
        p.privateReuse = 0.60;
        apps.push_back(insensitive(p));
    }
    {
        auto p = base("C-SCAN", "C");
        p.memRatio = 0.06;
        p.privateLines = 5000;
        apps.push_back(insensitive(p));
    }

    if (apps.size() != 28)
        panic("app catalog must have 28 apps, has %zu", apps.size());

    // Serving metadata is derived, not hand-tuned: every entry gets a
    // footprint class and a nominal job length from its parameters.
    for (auto &app : apps) {
        app.footprint = footprintClassFor(app.params);
        app.nominalInstrBudget = nominalInstrBudgetFor(app.params);
    }
    return apps;
}

} // anonymous namespace

const char *
footprintClassName(FootprintClass c)
{
    switch (c) {
      case FootprintClass::Small:
        return "small";
      case FootprintClass::Medium:
        return "medium";
      case FootprintClass::Large:
        return "large";
    }
    panic("bad footprint class %u", static_cast<unsigned>(c));
}

FootprintClass
footprintClassFor(const WorkloadParams &p)
{
    const std::uint64_t lines = p.sharedLines + p.privateLines;
    if (lines < 2048)
        return FootprintClass::Small;
    if (lines < 8192)
        return FootprintClass::Medium;
    return FootprintClass::Large;
}

std::uint64_t
nominalInstrBudgetFor(const WorkloadParams &p)
{
    const std::uint64_t lines = p.sharedLines + p.privateLines;
    // Memory instructions per pass over the footprint, then total
    // instructions at the app's arithmetic intensity.
    const double mem_instrs =
        double(lines) / double(std::max(1u, p.coalescedAccesses));
    const double per_pass = mem_instrs / std::max(0.01, p.memRatio);
    const double budget = 8.0 * per_pass;
    const double clamped = std::min(1'000'000.0, std::max(50'000.0, budget));
    return static_cast<std::uint64_t>(clamped);
}

const std::vector<AppInfo> &
appCatalog()
{
    static const std::vector<AppInfo> catalog = buildCatalog();
    return catalog;
}

const AppInfo &
appByName(const std::string &name)
{
    for (const auto &app : appCatalog())
        if (app.params.name == name)
            return app;
    std::string known;
    for (const auto &app : appCatalog())
        known += " " + app.params.name;
    fatal("unknown application '%s'; the catalog is:%s", name.c_str(),
          known.c_str());
}

std::vector<AppInfo>
replicationSensitiveApps()
{
    std::vector<AppInfo> out;
    for (const auto &app : appCatalog())
        if (app.replicationSensitive)
            out.push_back(app);
    return out;
}

std::vector<AppInfo>
replicationInsensitiveApps()
{
    std::vector<AppInfo> out;
    for (const auto &app : appCatalog())
        if (!app.replicationSensitive)
            out.push_back(app);
    return out;
}

std::vector<AppInfo>
poorPerformingApps()
{
    std::vector<AppInfo> out;
    for (const auto &app : appCatalog())
        if (app.poorUnderSh40)
            out.push_back(app);
    return out;
}

} // namespace dcl1::workload
