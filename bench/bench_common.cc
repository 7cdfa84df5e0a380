#include "bench/bench_common.hh"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "common/env.hh"
#include "common/log.hh"
#include "exec/job_runner.hh"
#include "exec/job_set.hh"
#include "exec/result_sink.hh"
#include "exec/run_manifest.hh"

namespace dcl1::bench
{

namespace
{

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, sep))
        out.push_back(item);
    return out;
}

/** Run @p set on the parallel engine; results come back in job order. */
std::vector<exec::JobResult>
runJobSet(const exec::JobSet &set)
{
    exec::JobRunner runner(exec::ExecOptions::fromEnv());
    // DCL1_RUN_DIR makes figure runs durable: completed cells are
    // skipped on a re-run. One directory serves every figure — the
    // manifest identity is just the build signature; individual cells
    // are told apart by their durable (design, app, opts, platform,
    // seed) keys.
    std::unique_ptr<exec::RunManifest> manifest;
    if (const std::string dir = envStrOr("DCL1_RUN_DIR", "");
        !dir.empty()) {
        manifest = exec::RunManifest::openOrCreate(dir, "bench");
        runner.attachManifest(manifest.get());
    }
    exec::ProgressSink progress;
    runner.addSink(&progress);
    std::unique_ptr<exec::JsonlSink> jsonl;
    if (!runner.options().jsonlPath.empty()) {
        jsonl = std::make_unique<exec::JsonlSink>(
            runner.options().jsonlPath);
        runner.addSink(jsonl.get());
    }
    return runner.run(set.specs());
}

} // anonymous namespace

Harness::Harness() : opts_(core::ExperimentOptions::fromEnv())
{
    // DCL1_TIMELINE=<dir>: emit a per-cell cycle-interval timeline for
    // every cell. Observability only — the metrics and printed tables
    // are byte-identical with or without it.
    if (const std::string dir = envStrOr("DCL1_TIMELINE", "");
        !dir.empty())
        set_.setTimelineDir(dir);
}

void
Harness::title(const std::string &title, const std::string &what) const
{
    std::printf("==== %s ====\n", title.c_str());
    std::printf("%s\n", what.c_str());
    std::printf("platform: %s\n", sys_.summary().c_str());
    std::printf("cycles: %llu measured after %llu warmup\n\n",
                static_cast<unsigned long long>(opts_.measureCycles),
                static_cast<unsigned long long>(opts_.warmupCycles));
}

std::size_t
Harness::cell(const core::SystemConfig &sys,
              const core::DesignConfig &design,
              const workload::AppInfo &app, const std::string &key_suffix)
{
    return set_.addCell(sys, design, app.params, opts_, key_suffix);
}

void
Harness::declare(const std::vector<core::DesignConfig> &designs,
                 const std::vector<workload::AppInfo> &apps)
{
    for (const auto &app : apps) {
        declare(sys_, core::baselineDesign(), app);
        for (const auto &design : designs)
            declare(sys_, design, app);
    }
}

void
Harness::declare(const core::SystemConfig &sys,
                 const core::DesignConfig &design,
                 const workload::AppInfo &app,
                 const std::string &key_suffix)
{
    declared_[figure_].insert(cell(sys, design, app, key_suffix));
}

void
Harness::simulate(std::size_t num_figures)
{
    std::fprintf(stderr,
                 "[figures] %zu figure(s): %zu cells requested, %zu "
                 "scheduled\n",
                 num_figures, set_.cellsRequested(), set_.size());
    if (set_.size() != 0)
        results_ = runJobSet(set_);
}

const core::RunMetrics &
Harness::run(const core::SystemConfig &sys,
             const core::DesignConfig &design,
             const workload::AppInfo &app, const std::string &key_suffix)
{
    // A known cell maps onto its existing job; an unknown one is
    // appended past the simulated results and fails the check below.
    const std::size_t index = cell(sys, design, app, key_suffix);
    if (!declared_[figure_].count(index))
        panic("figure %s reads cell %s%s%s that it never declared",
              figure_.c_str(), set_.label(index).c_str(),
              key_suffix.empty() ? "" : " ", key_suffix.c_str());
    const exec::JobResult &r = results_[index];
    if (!r.ok)
        fatal("figure %s: cell %s failed: %s", figure_.c_str(),
              r.label.c_str(), r.error.c_str());
    return r.metrics;
}

double
Harness::speedup(const core::DesignConfig &design,
                 const workload::AppInfo &app)
{
    const double base = baseline(app).ipc;
    return base > 0.0 ? run(design, app).ipc / base : 0.0;
}

std::vector<workload::AppInfo>
Harness::apps(bool sensitive_only, bool insensitive_only)
{
    std::vector<workload::AppInfo> out;
    std::vector<std::string> filter;
    if (const std::string f = envStrOr("DCL1_APPS", ""); !f.empty())
        filter = split(f, ',');

    for (const auto &app : workload::appCatalog()) {
        if (sensitive_only && !app.replicationSensitive)
            continue;
        if (insensitive_only && app.replicationSensitive)
            continue;
        if (!filter.empty()) {
            bool keep = false;
            for (const auto &name : filter)
                keep = keep || name == app.params.name;
            if (!keep)
                continue;
        }
        out.push_back(app);
    }
    return out;
}

std::string
benchOutputPath(const std::string &filename)
{
    const std::string dir = envStrOr("DCL1_BENCH_DIR", "");
    if (dir.empty())
        return filename;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("DCL1_BENCH_DIR '%s': cannot create directory (%s)",
              dir.c_str(), ec.message().c_str());
    return dir + "/" + filename;
}

void
header(const std::string &title)
{
    std::printf("\n-- %s --\n", title.c_str());
}

void
row(const std::string &label, const std::vector<double> &values,
    const char *fmt)
{
    std::printf("%-14s", label.c_str());
    for (double v : values)
        std::printf(fmt, v);
    std::printf("\n");
}

void
columns(const std::string &label, const std::vector<std::string> &names)
{
    std::printf("%-14s", label.c_str());
    for (const auto &n : names)
        std::printf("%8s", n.c_str());
    std::printf("\n");
}

const std::vector<Figure> &
figureRegistry()
{
    static const std::vector<Figure> registry = {
        tab1_noc_configs,         fig01_motivation,
        fig02_utilization,        fig04_private_dcl1,
        fig06_private_area_power, fig08_shared_sensitive,
        fig09_shared_insensitive, fig11_clustered,
        fig12_clustered_area_power, fig13_boost,
        fig14_overall_ipc,        fig15_scurve,
        fig16_missrate_replicas,  fig17_port_utilization,
        fig18_energy_area,        fig19_sensitivity,
        sens_misc,                ablate_design,
        ext_scaling};
    return registry;
}

void
runFigures(const std::vector<std::string> &names)
{
    std::vector<const Figure *> selected;
    if (names.empty())
        for (const Figure &f : figureRegistry())
            selected.push_back(&f);
    for (const std::string &name : names) {
        std::string known;
        for (const Figure &f : figureRegistry()) {
            if (name == f.name)
                selected.push_back(&f);
            known += csprintf(" %s", f.name);
        }
        if (selected.empty() || selected.back()->name != name)
            fatal("unknown figure '%s'; figures are:%s", name.c_str(),
                  known.c_str());
    }

    Harness h;
    for (const Figure *f : selected) {
        h.setFigure(f->name);
        if (f->declare != nullptr)
            f->declare(h);
    }
    h.simulate(selected.size());
    for (const Figure *f : selected) {
        h.setFigure(f->name);
        f->render(h);
    }
}

} // namespace dcl1::bench
