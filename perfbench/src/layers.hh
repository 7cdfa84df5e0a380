/**
 * @file
 * Per-layer host costs, measured from outside the simulator by timing
 * calls into each layer's public API: Crossbar, CacheBank, TagArray,
 * DramChannel, SyntheticSource::nextInstr and ReplicationTracker.
 *
 * Every probe is fed inputs shaped by the workload being measured:
 * rates come from that workload's own RunMetrics and crossbar
 * counters, and addresses from each app's own SyntheticSource. A
 * probe does a fixed amount of work in a fixed number of rounds and
 * reports the median round, so a burst of host noise moves one round,
 * not the figure.
 */
#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cells.hh"

namespace perfbench
{

/** A crossbar shape (inputs x outputs) and the clock it runs at. */
struct XbarGeom
{
    std::uint32_t inputs = 0;
    std::uint32_t outputs = 0;
    double clockRatio = 0.5;

    std::string name() const;
};

/**
 * Every crossbar geometry the given designs build, deduplicated by
 * shape in first-seen order (core::crossbarInventory).
 */
std::vector<XbarGeom> xbarGeometries(const std::vector<std::string> &designs);

/** Geometries of every design of every workload (metric names). */
std::vector<XbarGeom> allXbarGeometries();

/** Per-app load observed in a workload's own cells. */
struct AppLoad
{
    double l1PerBankCycle = 0.0;  ///< L1/DC-L1 accesses per bank-cycle
    double l2PerSliceCycle = 0.0; ///< L2 accesses per slice-cycle
    double dramPerChannelCycle = 0.0;
    double dramWriteFrac = 0.0;
};

/** Crossbar load observed for one geometry. */
struct XbarLoad
{
    double flitsPerTick = 0.0; ///< per crossbar instance, per core cycle
    double flitsPerPacket = 1.0;
};

/** What the layer probes are shaped by. */
struct LayerShape
{
    std::uint64_t seedSlot = 0;
    std::map<std::string, AppLoad> apps;
    /** Keyed by XbarGeom::name(); geometries not observed are absent. */
    std::map<std::string, XbarLoad> xbars;
    /** Geometries to drive, with the clock each runs at. */
    std::vector<XbarGeom> geoms;
};

/** Build the shape from a workload's passes (untraced, observed). */
LayerShape shapeFrom(const Workload &w, std::uint64_t seed_slot,
                     const std::vector<PassResult> &passes);

/** Drive every layer; returns (metric name, value) pairs. */
std::vector<std::pair<std::string, double>>
driveLayers(const LayerShape &shape);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
