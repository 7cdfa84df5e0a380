/**
 * @file
 * figures — regenerate the paper's tables and figures.
 *
 *   figures                      every figure, in registry order
 *   figures fig14_overall_ipc    one figure, named after its source
 *   figures fig01_motivation fig14_overall_ipc
 *
 * Every selected figure declares its cells into one deduplicated cell
 * set, which runs once on the parallel engine; then each figure
 * prints to stdout. Progress and the cell counts go to stderr.
 * Environment knobs are listed in bench/bench_common.hh.
 */

#include <string>
#include <vector>

#include "bench/bench_common.hh"

int
main(int argc, char **argv)
{
    dcl1::bench::runFigures(std::vector<std::string>(argv + 1, argv + argc));
    return 0;
}
