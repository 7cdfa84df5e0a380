/**
 * @file
 * Pinned simulated results: the expected RunMetrics (every field at
 * %.17g) and stat-tree digest of every cell, for every seed slot a run
 * can use, stored as one TSV per workload under perfbench/expected/.
 *
 * A run only reads these files. They are rewritten by the explicit
 * --update-expected mode and by nothing else.
 */
#ifndef PERFBENCH_PINNED_HH
#define PERFBENCH_PINNED_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "cells.hh"

namespace perfbench
{

/** Expected results of one cell. */
struct Pinned
{
    std::string digest;  ///< 16 hex digits
    std::string metrics; ///< formatMetrics()
};

/** Expected results of one workload, keyed by (seed slot, label). */
class PinnedTable
{
  public:
    /**
     * First line of the file: names the workload and its budgets, so a
     * table pinned for other budgets matches no cell.
     */
    static std::string header(const Workload &w);

    /** Path of @p w's table under @p dir. */
    static std::string path(const std::string &dir, const Workload &w);

    /**
     * Read @p path. Returns false (and leaves the table empty) when the
     * file is missing, malformed, or pinned for another header; @p why
     * says which.
     */
    bool load(const std::string &path, const std::string &header,
              std::string &why);

    /** Write every entry, atomically. */
    void save(const std::string &path, const std::string &header) const;

    void set(std::uint64_t slot, const std::string &label, Pinned p);

    /**
     * Compare @p run with its pinned entry. Returns "" when it matches,
     * otherwise why the cell counts as failed.
     */
    std::string check(std::uint64_t slot, const CellRun &run) const;

    std::size_t size() const { return entries_.size(); }

    /**
     * Flip one digit of the pinned digest of (@p slot, @p label)
     * (self-test). Returns false when there is no such entry.
     */
    bool corrupt(std::uint64_t slot, const std::string &label);

  private:
    std::map<std::pair<std::uint64_t, std::string>, Pinned> entries_;
};

/** 16 lowercase hex digits. */
std::string hex64(std::uint64_t v);

} // namespace perfbench

#endif // PERFBENCH_PINNED_HH
