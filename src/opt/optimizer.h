/**
 * @file
 * Cost-based physical optimization of logical plans.
 *
 * The optimizer reproduces the two adaptive behaviours the paper
 * highlights (Section 7 / Figure 7):
 *
 *  1. Serial-plan choice: when the estimated total work is below a
 *     threshold (small scale factors), the plan runs serially and the
 *     query becomes insensitive to MAXDOP — the paper's flat Q2/Q6/
 *     Q14/Q15/Q20 lines at SF=10.
 *
 *  2. Join-algorithm choice: a hash join is rewritten into a parallel
 *     index nested-loops join when an index exists on the inner key
 *     and the outer is small or parallelism is high — the paper's
 *     Q20 plan change between MAXDOP=1 and MAXDOP=32 at SF=300.
 *
 * Cardinalities are estimated bottom-up from table row counts and
 * selectivity heuristics.
 */

#ifndef DBSENS_OPT_OPTIMIZER_H
#define DBSENS_OPT_OPTIMIZER_H

#include "exec/plan.h"
#include "exec/table_handle.h"

namespace dbsens {

namespace sketch {
class SketchHub;
}

/** Physical optimization settings. */
struct OptimizerConfig
{
    int maxdop = 32;

    /**
     * Per-tenant DOP ceiling imposed by the autopilot (src/tune) on
     * top of the server-wide maxdop. 0 means uncapped; nonzero caps
     * are applied at construction so every plan choice — serial
     * threshold included — sees the effective DOP.
     */
    int maxdopCap = 0;

    /**
     * Total-cost threshold (arbitrary cost units) below which a
     * serial plan is chosen. Calibrated so scaled SF=10/30 short
     * queries go serial, as in the paper.
     */
    double serialThreshold = 6.0e6;

    /**
     * Live sketch statistics (src/stats_sketch). Non-null ⇒ literal
     * predicates over numeric base-table columns are estimated from
     * CountMin frequencies and KLL ranks (built lazily on first
     * touch) instead of the static heuristics, so plan choice —
     * serial-vs-parallel, join algorithm, exchange placement —
     * reacts to the observed skew. Null (default) keeps the static
     * estimates and byte-identical plans.
     */
    sketch::SketchHub *sketch = nullptr;
};

/** Cost-based optimizer. */
class Optimizer
{
  public:
    explicit Optimizer(const TableResolver &resolver,
                       OptimizerConfig cfg = {})
        : resolver_(resolver), cfg_(cfg)
    {
        if (cfg_.maxdopCap > 0 && cfg_.maxdopCap < cfg_.maxdop)
            cfg_.maxdop = cfg_.maxdopCap;
        if (cfg_.maxdop < 1)
            cfg_.maxdop = 1;
    }

    /**
     * Annotate the plan in place: cardinalities, join algorithms,
     * parallel flags, and exchange placement. Returns the estimated
     * total cost.
     */
    double optimize(PlanNode &root);

    /** True if the last optimized plan was parallel. */
    bool lastPlanParallel() const { return lastParallel_; }

  private:
    /** Bottom-up cardinality + cost estimation. */
    double estimate(PlanNode &n);

    /** Selectivity heuristic for a predicate. */
    static double selectivity(const Expr &e);

    /**
     * Sketch-aware selectivity: literal comparisons, IN lists, and
     * boolean combinations over `th`'s numeric columns use live CMS
     * frequencies / KLL ranks; everything else (and a null hub)
     * falls back to the static heuristic.
     */
    double selectivityFor(const Expr &e, const TableHandle *th,
                          const std::string &prefix);

    /** Try to rewrite a HashJoin into an IndexNLJoin. */
    void considerIndexJoin(PlanNode &n);

    void setParallel(PlanNode &n, bool parallel);
    void insertExchanges(PlanNode &n);

    const TableResolver &resolver_;
    OptimizerConfig cfg_;
    bool lastParallel_ = false;
};

} // namespace dbsens

#endif // DBSENS_OPT_OPTIMIZER_H
