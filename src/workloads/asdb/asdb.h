/**
 * @file
 * Azure-SQL-Database-benchmark-like workload (paper Section 2.1).
 *
 * The public description of ASDB defines three table classes — fixed
 * (constant rows), scaling (rows proportional to scale factor), and
 * growing (rows inserted and deleted during the run) — exercised by a
 * CRUD mix from 128 client sessions. Microsoft's exact transaction
 * set is not public; the mix here follows the documented class
 * behaviour (see DESIGN.md Section 8).
 */

#ifndef DBSENS_WORKLOADS_ASDB_ASDB_H
#define DBSENS_WORKLOADS_ASDB_ASDB_H

#include "engine/txn_ctx.h"
#include "workloads/workload.h"

namespace dbsens {
namespace asdb {

/** Row counts at a paper scale factor (2000 / 6000). */
struct AsdbScale
{
    explicit AsdbScale(int sf);

    int sf;
    uint64_t fixedRows = 2000;
    uint64_t scalingRows; ///< 24 rows per SF unit (~1 KB rows)
    uint64_t growingRows; ///< starts at scaling size
};

/** Build the ASDB database. */
std::unique_ptr<Database> generateDb(int sf, uint64_t seed);

/** The ASDB workload driver (128 sessions). */
class AsdbWorkload : public OltpWorkload
{
  public:
    explicit AsdbWorkload(int sf, int sessions = 128);

    std::string name() const override { return "ASDB"; }
    int scaleFactor() const override { return sf_; }

    std::unique_ptr<Database>
    generate(uint64_t seed) const override
    {
        return generateDb(sf_, seed);
    }

    int sessionCount() const override { return sessions_; }

    void startSessions(SimRun &run, Database &db,
                       uint64_t seed) override;

    Task<void> session(SimRun &run, Database &db, uint64_t seed);

  private:
    int sf_;
    int sessions_;
    int64_t nextGrowKey_ = 0;
    int64_t growHead_ = 0; ///< oldest live growing-table key
    /** Key picker over the scaling table, shared by every session
     * (immutable, built once per workload). */
    const ZipfSampler scalingZipf_;
};

} // namespace asdb
} // namespace dbsens

#endif // DBSENS_WORKLOADS_ASDB_ASDB_H
