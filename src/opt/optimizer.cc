#include "opt/optimizer.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"
#include "opt/sketch_stats.h"

namespace dbsens {

namespace {

// Cost units are roughly instructions.
constexpr double kCostScanRow = 2.0;
constexpr double kCostBuildRow = 9.0;
constexpr double kCostProbeRow = 6.0;
constexpr double kCostNlProbe = 34.0;
constexpr double kCostAggRow = 5.0;
constexpr double kCostSortRowLog = 1.8;

/** Numeric value of a Const literal; false for strings. */
bool
literalValue(const Expr &e, double *out)
{
    if (e.kind != ExprKind::Const || e.literal.isString())
        return false;
    *out = e.literal.isInt() ? double(e.literal.asInt())
                             : e.literal.asDouble();
    return true;
}

double
clampSel(double s)
{
    return s < 0.0 ? 0.0 : (s > 1.0 ? 1.0 : s);
}

/** Mirror a comparison when the literal is on the left. */
CmpOp
mirrorCmp(CmpOp op)
{
    switch (op) {
      case CmpOp::Lt: return CmpOp::Gt;
      case CmpOp::Le: return CmpOp::Ge;
      case CmpOp::Gt: return CmpOp::Lt;
      case CmpOp::Ge: return CmpOp::Le;
      default: return op;
    }
}

} // namespace

double
Optimizer::selectivity(const Expr &e)
{
    switch (e.kind) {
      case ExprKind::Cmp:
        switch (e.cmp) {
          case CmpOp::Eq: return 0.02;
          case CmpOp::Ne: return 0.95;
          default: return 0.35;
        }
      case ExprKind::Logic:
        switch (e.logic) {
          case LogicOp::And:
            return selectivity(*e.kids[0]) * selectivity(*e.kids[1]);
          case LogicOp::Or:
            return std::min(1.0, selectivity(*e.kids[0]) +
                                     selectivity(*e.kids[1]));
          case LogicOp::Not:
            return 1.0 - selectivity(*e.kids[0]);
        }
        return 0.5;
      case ExprKind::Like:
        return 0.05;
      case ExprKind::InList:
        return std::min(
            1.0,
            0.02 * double(e.inStrings.size() + e.inInts.size()));
      case ExprKind::SubstrIn:
        return std::min(1.0, 0.04 * double(e.inStrings.size()));
      default:
        return 0.5;
    }
}

double
Optimizer::selectivityFor(const Expr &e, const TableHandle *th,
                          const std::string &prefix)
{
    if (!cfg_.sketch || !th)
        return selectivity(e);
    switch (e.kind) {
      case ExprKind::Cmp: {
        // Literal comparison against a base-table column?
        const Expr *cr = nullptr;
        const Expr *ct = nullptr;
        CmpOp op = e.cmp;
        if (e.kids[0]->kind == ExprKind::ColRef &&
            e.kids[1]->kind == ExprKind::Const) {
            cr = e.kids[0].get();
            ct = e.kids[1].get();
        } else if (e.kids[1]->kind == ExprKind::ColRef &&
                   e.kids[0]->kind == ExprKind::Const) {
            cr = e.kids[1].get();
            ct = e.kids[0].get();
            op = mirrorCmp(op);
        } else {
            return selectivity(e);
        }
        double v;
        if (!literalValue(*ct, &v))
            return selectivity(e);
        std::string colname = cr->column;
        if (!prefix.empty() &&
            colname.compare(0, prefix.size(), prefix) == 0)
            colname = colname.substr(prefix.size());
        const auto *cs = ensureColumnStats(*cfg_.sketch, *th, colname);
        if (!cs || cs->rows == 0)
            return selectivity(e);
        const double n = double(cs->rows);
        // rank(v) counts items < v; nudging the probe one ulp up
        // turns it into <= v.
        const double up = std::nextafter(v, HUGE_VAL);
        switch (op) {
          case CmpOp::Eq:
            if (!cs->hasCms || !ct->literal.isInt())
                return selectivity(e);
            return clampSel(
                double(cs->cms.estimate(uint64_t(ct->literal.asInt()))) /
                n);
          case CmpOp::Ne:
            if (!cs->hasCms || !ct->literal.isInt())
                return selectivity(e);
            return clampSel(
                1.0 -
                double(cs->cms.estimate(uint64_t(ct->literal.asInt()))) /
                    n);
          case CmpOp::Lt:
            return clampSel(double(cs->kll.rank(v)) / n);
          case CmpOp::Le:
            return clampSel(double(cs->kll.rank(up)) / n);
          case CmpOp::Gt:
            return clampSel(1.0 - double(cs->kll.rank(up)) / n);
          case CmpOp::Ge:
            return clampSel(1.0 - double(cs->kll.rank(v)) / n);
        }
        return selectivity(e);
      }
      case ExprKind::Logic:
        switch (e.logic) {
          case LogicOp::And:
            return selectivityFor(*e.kids[0], th, prefix) *
                   selectivityFor(*e.kids[1], th, prefix);
          case LogicOp::Or:
            return std::min(1.0,
                            selectivityFor(*e.kids[0], th, prefix) +
                                selectivityFor(*e.kids[1], th, prefix));
          case LogicOp::Not:
            return 1.0 - selectivityFor(*e.kids[0], th, prefix);
        }
        return 0.5;
      case ExprKind::InList: {
        if (e.inInts.empty())
            return selectivity(e);
        std::string colname = e.column;
        if (!prefix.empty() &&
            colname.compare(0, prefix.size(), prefix) == 0)
            colname = colname.substr(prefix.size());
        const auto *cs = ensureColumnStats(*cfg_.sketch, *th, colname);
        if (!cs || !cs->hasCms || cs->rows == 0)
            return selectivity(e);
        double hits = 0;
        for (const int64_t v : e.inInts)
            hits += double(cs->cms.estimate(uint64_t(v)));
        return clampSel(hits / double(cs->rows));
      }
      default:
        return selectivity(e);
    }
}

double
Optimizer::estimate(PlanNode &n)
{
    double cost = 0;
    for (auto &k : n.children)
        cost += estimate(*k);
    for (auto &p : n.paramSubplans)
        cost += estimate(*p.plan);

    switch (n.kind) {
      case PlanKind::Scan: {
        const TableHandle &th = resolver_.find(n.table);
        n.estRows = double(th.data->liveRows());
        cost += n.estRows * kCostScanRow *
                std::max<size_t>(n.columns.size(), 1) * 0.5;
        break;
      }
      case PlanKind::Filter: {
        const TableHandle *th = nullptr;
        std::string prefix;
        if (cfg_.sketch &&
            n.children[0]->kind == PlanKind::Scan) {
            th = &resolver_.find(n.children[0]->table);
            prefix = n.children[0]->columnPrefix;
        }
        n.estRows = n.children[0]->estRows *
                    selectivityFor(*n.predicate, th, prefix);
        cost += n.children[0]->estRows;
        break;
      }
      case PlanKind::Project:
        n.estRows = n.children[0]->estRows;
        cost += n.estRows * 0.5 * double(n.projections.size());
        break;
      case PlanKind::HashJoin: {
        const double l = n.children[0]->estRows;
        const double r = n.children[1]->estRows;
        switch (n.joinType) {
          case JoinType::Inner:
            n.estRows = std::max(l, r) * 0.8;
            break;
          case JoinType::LeftOuter:
            n.estRows = std::max(l, r);
            break;
          case JoinType::LeftSemi:
            n.estRows = l * 0.5;
            break;
          case JoinType::LeftAnti:
            n.estRows = l * 0.3;
            break;
        }
        cost += r * kCostBuildRow + l * kCostProbeRow;
        break;
      }
      case PlanKind::IndexNLJoin: {
        const double l = n.children[0]->estRows;
        n.estRows = l; // near-1:1 key joins dominate our workloads
        cost += l * kCostNlProbe;
        break;
      }
      case PlanKind::Aggregate:
        n.estRows = n.groupBy.empty()
                        ? 1.0
                        : std::max(1.0, n.children[0]->estRows * 0.1);
        cost += n.children[0]->estRows * kCostAggRow;
        break;
      case PlanKind::Sort:
      case PlanKind::TopN: {
        const double in_rows = n.children[0]->estRows;
        n.estRows = n.kind == PlanKind::TopN
                        ? std::min<double>(double(n.limit), in_rows)
                        : in_rows;
        cost += in_rows * std::log2(in_rows + 2) * kCostSortRowLog;
        break;
      }
      case PlanKind::Exchange:
        n.estRows = n.children[0]->estRows;
        break;
    }
    n.estCost = cost;
    return cost;
}

void
Optimizer::considerIndexJoin(PlanNode &n)
{
    for (auto &k : n.children)
        considerIndexJoin(*k);
    for (auto &p : n.paramSubplans)
        considerIndexJoin(*p.plan);

    if (n.kind != PlanKind::HashJoin || n.joinType != JoinType::Inner)
        return;
    if (n.leftKeys.size() != 1)
        return;
    // The inner must be a base-table scan, optionally under a filter
    // (the filter is re-applied above the join; valid for inner
    // joins). This is exactly the paper's Q20 shape: the MAXDOP=32
    // plan turns the hash join with `part` into a parallel nested
    // loops join against part's index (Figure 7).
    PlanNode *right = n.children[1].get();
    ExprPtr residual;
    if (right->kind == PlanKind::Filter &&
        right->children[0]->kind == PlanKind::Scan) {
        residual = right->predicate;
        right = right->children[0].get();
    }
    if (right->kind != PlanKind::Scan)
        return;
    const TableHandle &th = resolver_.find(right->table);
    if (!th.indexOn(n.rightKeys[0]))
        return;

    const double l = n.children[0]->estRows;
    const double r = right->estRows;
    const int dop = std::max(1, cfg_.maxdop);
    // Index NL parallelizes across probes with no build phase; the
    // hash build does not scale past a few workers.
    const double cost_nl = l * kCostNlProbe / std::min(dop, 16);
    const double cost_hash = r * kCostBuildRow / std::min(dop, 4) +
                             l * kCostProbeRow / std::min(dop, 16);
    if (cost_nl >= cost_hash)
        return;

    // Rewrite: fold the scan into the join node; re-apply any inner
    // filter above the join (fetched columns keep their names).
    n.kind = PlanKind::IndexNLJoin;
    n.table = right->table;
    n.columns = right->columns;
    n.columnPrefix = right->columnPrefix;
    n.children.resize(1);
    if (residual) {
        auto joined = std::make_unique<PlanNode>();
        joined->kind = n.kind;
        joined->table = std::move(n.table);
        joined->columns = std::move(n.columns);
        joined->columnPrefix = std::move(n.columnPrefix);
        joined->joinType = n.joinType;
        joined->leftKeys = std::move(n.leftKeys);
        joined->rightKeys = std::move(n.rightKeys);
        joined->children = std::move(n.children);
        joined->paramSubplans = std::move(n.paramSubplans);
        n = PlanNode{};
        n.kind = PlanKind::Filter;
        n.predicate = residual;
        n.children.push_back(std::move(joined));
    }
}

void
Optimizer::setParallel(PlanNode &n, bool parallel)
{
    n.parallel = parallel;
    for (auto &k : n.children)
        setParallel(*k, parallel);
    for (auto &p : n.paramSubplans)
        setParallel(*p.plan, parallel);
}

void
Optimizer::insertExchanges(PlanNode &n)
{
    for (auto &k : n.children)
        insertExchanges(*k);
    for (auto &p : n.paramSubplans)
        insertExchanges(*p.plan);

    const bool repartitions =
        n.kind == PlanKind::HashJoin || n.kind == PlanKind::Aggregate ||
        n.kind == PlanKind::Sort || n.kind == PlanKind::TopN;
    if (!repartitions || !n.parallel)
        return;
    // Repartition each child stream.
    for (auto &k : n.children) {
        if (k->kind == PlanKind::Exchange)
            continue;
        auto ex = std::make_unique<PlanNode>();
        ex->kind = PlanKind::Exchange;
        ex->parallel = true;
        ex->estRows = k->estRows;
        ex->children.push_back(std::move(k));
        k = std::move(ex);
    }
}

double
Optimizer::optimize(PlanNode &root)
{
    // Pass 1: cardinalities with hash joins everywhere.
    estimate(root);
    // Pass 2: join algorithm rewrites (depends on maxdop).
    if (cfg_.maxdop > 1)
        considerIndexJoin(root);
    // Pass 3: re-estimate after rewrites; decide serial vs parallel.
    const double cost = estimate(root);
    const bool parallel =
        cfg_.maxdop > 1 && cost >= cfg_.serialThreshold;
    lastParallel_ = parallel;
    setParallel(root, parallel);
    if (parallel)
        insertExchanges(root);
    return cost;
}

} // namespace dbsens
