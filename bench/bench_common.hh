/**
 * @file
 * Shared harness for the paper-reproduction figures.
 *
 * Each table or figure of the paper is one registered Figure: it
 * declares the (design, application) cells it reads, and renders the
 * same rows/series the paper reports, normalized to the private-L1
 * baseline. `figures [name ...]` (bench/figures.cc) declares every
 * selected figure's cells into one exec::JobSet, simulates that set
 * once on the parallel engine, then renders each figure in registry
 * order. A cell several figures read is simulated once.
 *
 * Environment:
 *   DCL1_CYCLES / DCL1_WARMUP - simulation length per cell
 *   DCL1_APPS=a,b,c           - restrict the app set (smoke runs);
 *                               a name not in the catalog is fatal
 *   DCL1_JOBS=N               - parallel workers
 *                               (default: one per hardware thread)
 *   DCL1_JOBS_LOG=<file>      - per-job JSONL timing records
 *   DCL1_RUN_DIR=<dir>        - durable run directory (resume)
 *   DCL1_TIMELINE=<dir>       - one cycle-interval timeline JSONL per
 *                               cell (see src/stats/); file indices
 *                               count across all selected figures
 *   DCL1_TIMELINE_INTERVAL=N  - cycles per timeline row
 */

#ifndef DCL1_BENCH_BENCH_COMMON_HH
#define DCL1_BENCH_BENCH_COMMON_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "exec/job_set.hh"
#include "workload/app_catalog.hh"

namespace dcl1::bench
{

/**
 * Shared figure state: platform, cycle budget, and the one cell set.
 *
 * A figure's declare function lists its cells with declare(); its
 * render function reads them back with run()/baseline()/speedup().
 * Both phases key cells through JobSet::addCell, whose memo is the
 * only cell identity. Reading a cell the current figure never
 * declared panics; reading a cell whose simulation failed is fatal.
 */
class Harness
{
  public:
    Harness();

    /// @name Declare phase
    /// @{

    /**
     * Declare every (design, app) cell of the grid, plus each app's
     * Baseline (the speedup denominator).
     */
    void declare(const std::vector<core::DesignConfig> &designs,
                 const std::vector<workload::AppInfo> &apps);

    /**
     * Declare one cell on platform @p sys. @p key_suffix tells apart
     * SystemConfig edits that sys.summary() does not show.
     */
    void declare(const core::SystemConfig &sys,
                 const core::DesignConfig &design,
                 const workload::AppInfo &app,
                 const std::string &key_suffix = "");

    /// @}

    /// @name Render phase
    /// @{

    /** Print the figure banner: title, description, platform, cycles. */
    void title(const std::string &title, const std::string &what) const;

    /** Metrics of a declared cell on the Table II platform. */
    const core::RunMetrics &run(const core::DesignConfig &design,
                                const workload::AppInfo &app)
    {
        return run(sys_, design, app);
    }

    /** Metrics of a declared cell (see declare()). */
    const core::RunMetrics &run(const core::SystemConfig &sys,
                                const core::DesignConfig &design,
                                const workload::AppInfo &app,
                                const std::string &key_suffix = "");

    /** Baseline metrics for @p app. */
    const core::RunMetrics &
    baseline(const workload::AppInfo &app)
    {
        return run(core::baselineDesign(), app);
    }

    /** IPC speedup of @p design over baseline for @p app. */
    double speedup(const core::DesignConfig &design,
                   const workload::AppInfo &app);

    /// @}

    /** Apps honouring the DCL1_APPS filter. */
    std::vector<workload::AppInfo> apps(bool sensitive_only = false,
                                        bool insensitive_only = false);

    const core::SystemConfig &sys() const { return sys_; }

    /// @name Sequencing, used by runFigures
    /// @{

    /** Name the figure whose declare/render runs next. */
    void setFigure(const std::string &name) { figure_ = name; }

    /**
     * Simulate every declared cell once (DCL1_JOBS workers); prints
     * the requested and scheduled cell counts on stderr.
     */
    void simulate(std::size_t num_figures);

    /// @}

  private:
    std::size_t cell(const core::SystemConfig &sys,
                     const core::DesignConfig &design,
                     const workload::AppInfo &app,
                     const std::string &key_suffix);

    core::SystemConfig sys_;
    core::ExperimentOptions opts_;
    exec::JobSet set_;
    std::vector<exec::JobResult> results_;
    std::string figure_;
    /// Figure name -> indices of the cells it declared.
    std::map<std::string, std::set<std::size_t>> declared_;
};

/** One table or figure of the paper. */
struct Figure
{
    const char *name;             ///< CLI name, e.g. "fig14_overall_ipc"
    void (*declare)(Harness &h);  ///< nullptr: analytical, no cells
    void (*render)(Harness &h);   ///< prints the figure on stdout
};

/// @name The figures, one per source file named after it
/// @{
extern const Figure tab1_noc_configs, fig01_motivation, fig02_utilization,
    fig04_private_dcl1, fig06_private_area_power, fig08_shared_sensitive,
    fig09_shared_insensitive, fig11_clustered, fig12_clustered_area_power,
    fig13_boost, fig14_overall_ipc, fig15_scurve, fig16_missrate_replicas,
    fig17_port_utilization, fig18_energy_area, fig19_sensitivity,
    sens_misc, ablate_design, ext_scaling;
/// @}

/** Every figure, in the order `figures` with no names renders them. */
const std::vector<Figure> &figureRegistry();

/**
 * Declare, simulate and render the figures named in @p names (all
 * registered figures when empty). An unknown name is fatal.
 */
void runFigures(const std::vector<std::string> &names);

/**
 * The paper's four proposed DC-L1 designs, in the column order of
 * Figs. 14-16: Pr40, Sh40, Sh40+C10, Sh40+C10+Boost.
 */
std::vector<core::DesignConfig> proposedDesigns();

/// @name Table formatting helpers
/// @{

/** Print a section header. */
void header(const std::string &title);

/** Print a row label followed by a series of values. */
void row(const std::string &label, const std::vector<double> &values,
         const char *fmt = "%8.3f");

/** Print a column-header row. */
void columns(const std::string &label,
             const std::vector<std::string> &names);

/// @}

} // namespace dcl1::bench

#endif // DCL1_BENCH_BENCH_COMMON_HH
