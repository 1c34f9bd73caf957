/**
 * @file
 * Console reports over aggregated campaign results.
 *
 * Every printer consumes the spin-sweep/v1 results document produced by
 * Campaign::run() (see docs/SWEEP.md). spin_sweep prints all of them
 * for any spec, which covers the paper's Figs. 6, 7 (latency series and
 * saturation summary), 8b (link utilization) and 9 (spin counts).
 */

#ifndef SPINNOC_EXP_REPORT_HH
#define SPINNOC_EXP_REPORT_HH

#include <string>

#include "obs/Json.hh"

namespace spin::exp
{

/** Per-series latency/throughput tables (one block per series). */
void printSeries(const obs::JsonValue &results);

/**
 * Saturation-throughput summary: one `config pattern sat` row per
 * series (the Figs. 6/7 comparison).
 */
void printSaturationSummary(const obs::JsonValue &results);

/**
 * Fig. 8b-style link-utilization breakdown: one row per cell with the
 * flit / probe-SM / move-SM / idle cycle fractions.
 */
void printLinkUtilization(const obs::JsonValue &results);

/**
 * Fig. 9-style spin-count table: one row per cell with spins,
 * false-positive spins, and probe traffic; a header per (preset,
 * pattern) group (cells arrive in expansion order, so groups are
 * contiguous).
 */
void printSpinCounts(const obs::JsonValue &results);

/**
 * Wall-clock phase-attribution table over a spin-profile/v1 document
 * (obs::PhaseProfiler::toJson): one row per phase, share-sorted.
 */
void printPhaseProfile(const obs::JsonValue &profile);

} // namespace spin::exp

#endif // SPINNOC_EXP_REPORT_HH
