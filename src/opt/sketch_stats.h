/**
 * @file
 * Lazy builder of per-column sketch statistics for the optimizer
 * (DESIGN.md Section 16). The first predicate that touches a numeric
 * column scans it once — morsel by morsel, with per-morsel partial
 * sketches merged *in morsel order* — and memoizes the result in the
 * run's SketchHub. Int64 columns get a CountMin frequency sketch plus a
 * KLL quantile sketch; Double columns get the KLL only; String
 * columns are not sketched (callers fall back to the static
 * heuristics).
 */

#ifndef DBSENS_OPT_SKETCH_STATS_H
#define DBSENS_OPT_SKETCH_STATS_H

#include <string>

#include "exec/table_handle.h"
#include "stats_sketch/hub.h"

namespace dbsens {

/**
 * Sketch statistics for `column` of `th`, building them on first
 * request. Returns null for absent or non-numeric columns.
 */
const sketch::SketchHub::ColumnStats *
ensureColumnStats(sketch::SketchHub &hub, const TableHandle &th,
                  const std::string &column);

} // namespace dbsens

#endif // DBSENS_OPT_SKETCH_STATS_H
