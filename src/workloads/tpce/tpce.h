/**
 * @file
 * TPC-E-like brokerage workload (paper Section 2.1).
 *
 * A representative subset of TPC-E: the seven tables that carry the
 * paper's observed behaviour (hot LAST_TRADE updates for lock
 * contention, the growing TRADE insert path, read-mostly lookups and
 * positions) and nine transaction types with TPC-E's mix weights.
 * Row-store layout with B-tree indexes (paper Table 1). Scale factor
 * is the paper's (5000 / 15000 customers); row counts are sized so
 * real bytes x 1024 approximate Table 2.
 */

#ifndef DBSENS_WORKLOADS_TPCE_TPCE_H
#define DBSENS_WORKLOADS_TPCE_TPCE_H

#include "engine/txn_ctx.h"
#include "workloads/workload.h"

namespace dbsens {
namespace tpce {

/** Row counts at a paper scale factor. */
struct TpceScale
{
    explicit TpceScale(int sf);

    int sf;
    uint64_t customers;
    uint64_t accounts;   ///< 5 per customer
    uint64_t brokers;    ///< 1 per 100 customers
    uint64_t securities; ///< 685 per 1000 customers
    uint64_t trades;     ///< 70 per customer initially
    uint64_t holdings;   ///< 3 per account
};

/** Build the TPC-E database. */
std::unique_ptr<Database> generateDb(int sf, uint64_t seed,
                                     bool with_ncci = false);

/** The TPC-E transactional workload driver. */
class TpceWorkload : public OltpWorkload
{
  public:
    explicit TpceWorkload(int sf, int sessions = 100);

    std::string name() const override { return "TPC-E"; }
    int scaleFactor() const override { return sf_; }

    std::unique_ptr<Database>
    generate(uint64_t seed) const override
    {
        return generateDb(sf_, seed);
    }

    int sessionCount() const override { return sessions_; }

    void startSessions(SimRun &run, Database &db,
                       uint64_t seed) override;

    /** One client session: runs the transaction mix until run end. */
    Task<void> session(SimRun &run, Database &db, uint64_t seed);

  protected:
    int sf_;
    int sessions_;
    uint64_t nextTradeId_ = 0;

  private:
    // Skewed key pickers every session shares: immutable, so one
    // build per workload serves every session of every run.
    const ZipfSampler acctZipf_;
    const ZipfSampler secZipf_;
    const ZipfSampler custZipf_;
};

} // namespace tpce
} // namespace dbsens

#endif // DBSENS_WORKLOADS_TPCE_TPCE_H
