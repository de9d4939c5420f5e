#include "opt/sketch_stats.h"

#include <memory>

#include "exec/morsel.h"

namespace dbsens {

namespace {

/** One morsel's partial sketches. */
struct Partial
{
    std::unique_ptr<sketch::CountMinSketch> cms;
    std::unique_ptr<sketch::KllSketch> kll;
    uint64_t rows = 0;
};

} // namespace

const sketch::SketchHub::ColumnStats *
ensureColumnStats(sketch::SketchHub &hub, const TableHandle &th,
                  const std::string &column)
{
    if (const auto *cs = hub.findColumn(th.name, column))
        return cs;
    const Schema &s = th.data->schema();
    if (!s.has(column))
        return nullptr;
    const TypeId type = s.column(s.indexOf(column)).type;
    if (type == TypeId::String)
        return nullptr;

    auto &cs = hub.addColumn(th.name, column);
    cs.hasCms = type == TypeId::Int64;
    const sketch::SketchConfig &cfg = hub.config();
    const uint64_t seed = hub.columnSeed(th.name, column);
    const TableData &data = *th.data;
    const ColumnData &col = data.column(column);
    const size_t nrows = data.rowCount();

    // Per-morsel partials; CMS partials share the column seed (merge
    // requires it), KLL partials are seeded by morsel index.
    auto parts = morselMap<Partial>(
        nullptr, nrows, 0,
        [&](size_t m, size_t begin, size_t end) {
            Partial p;
            if (cs.hasCms)
                p.cms = std::make_unique<sketch::CountMinSketch>(
                    cfg.cmsWidth, sketch::SketchHub::kCmsDepth, seed);
            p.kll = std::make_unique<sketch::KllSketch>(
                cfg.kllK, seed ^ (m * 0x9e3779b97f4a7c15ULL + 1));
            for (size_t r = begin; r < end; ++r) {
                if (data.isDeleted(RowId(r)))
                    continue;
                ++p.rows;
                if (cs.hasCms) {
                    const int64_t v = col.getInt(RowId(r));
                    p.cms->update(uint64_t(v));
                    p.kll->update(double(v));
                } else {
                    p.kll->update(col.getDouble(RowId(r)));
                }
            }
            return p;
        });

    // Merge in morsel order.
    for (auto &p : parts) {
        if (p.cms)
            cs.cms.merge(*p.cms);
        cs.kll.merge(*p.kll);
        cs.rows += p.rows;
    }
    return &cs;
}

} // namespace dbsens
