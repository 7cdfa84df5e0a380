#include "pinned.hh"

#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "exec/atomic_file.hh"

namespace perfbench
{

std::string
hex64(std::uint64_t v)
{
    return dcl1::csprintf("%016llx", static_cast<unsigned long long>(v));
}

std::string
PinnedTable::header(const Workload &w)
{
    return dcl1::csprintf(
        "# perfbench pinned results v1 workload=%s warmup=%llu "
        "measure=%llu seed_slots=%llu columns=slot,cell,digest,%s",
        w.name.c_str(), static_cast<unsigned long long>(w.warmup),
        static_cast<unsigned long long>(w.measure),
        static_cast<unsigned long long>(kSeedSlots), kMetricFields);
}

std::string
PinnedTable::path(const std::string &dir, const Workload &w)
{
    return dir + "/" + w.name + ".tsv";
}

bool
PinnedTable::load(const std::string &path, const std::string &header,
                  std::string &why)
{
    entries_.clear();
    std::ifstream in(path);
    if (!in) {
        why = "cannot read " + path;
        return false;
    }
    std::string line;
    if (!std::getline(in, line) || line != header) {
        why = path + " was pinned for other budgets (header differs)";
        return false;
    }
    std::size_t lineno = 1;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string slot, label;
        Pinned p;
        if (!std::getline(fields, slot, '\t') ||
            !std::getline(fields, label, '\t') ||
            !std::getline(fields, p.digest, '\t') ||
            !std::getline(fields, p.metrics) ||
            slot.find_first_not_of("0123456789") != std::string::npos ||
            slot.empty() || slot.size() > 6) {
            entries_.clear();
            why = dcl1::csprintf("%s:%zu: malformed row", path.c_str(),
                                 lineno);
            return false;
        }
        entries_[{std::stoull(slot), label}] = std::move(p);
    }
    return true;
}

void
PinnedTable::save(const std::string &path, const std::string &header) const
{
    dcl1::exec::AtomicFileWriter out(path);
    out.stream() << header << "\n";
    for (const auto &[key, p] : entries_)
        out.stream() << key.first << '\t' << key.second << '\t' << p.digest
                     << '\t' << p.metrics << '\n';
    out.commit();
}

void
PinnedTable::set(std::uint64_t slot, const std::string &label, Pinned p)
{
    entries_[{slot, label}] = std::move(p);
}

std::string
PinnedTable::check(std::uint64_t slot, const CellRun &run) const
{
    if (!run.ok)
        return "aborted: " + run.error;
    const auto it = entries_.find({slot, run.label});
    if (it == entries_.end())
        return "no pinned result";
    if (it->second.digest != hex64(run.digest))
        return "stat digest " + hex64(run.digest) + " != pinned " +
               it->second.digest;
    if (it->second.metrics != run.metrics)
        return "metrics " + run.metrics + " != pinned " +
               it->second.metrics;
    return "";
}

bool
PinnedTable::corrupt(std::uint64_t slot, const std::string &label)
{
    const auto it = entries_.find({slot, label});
    if (it == entries_.end() || it->second.digest.empty())
        return false;
    char &c = it->second.digest[0];
    c = c == '0' ? '1' : '0';
    return true;
}

} // namespace perfbench
