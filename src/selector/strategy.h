#ifndef DYNAMAST_SELECTOR_STRATEGY_H_
#define DYNAMAST_SELECTOR_STRATEGY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/key.h"
#include "common/version_vector.h"
#include "selector/access_statistics.h"

namespace dynamast::selector {

/// Hyperparameters of the remastering benefit model (Eq. 8). The paper's
/// Appendix H values per workload are
///   YCSB:      balance=1e6, intra=3, inter=0, delay=0.5
///   SmallBank: balance=1,   intra=3, inter=0, delay=0.5
///   TPC-C:     balance=0.01, intra=inter=0.88, delay=0.05
/// Weights are only meaningful relative to the feature scales of a
/// concrete implementation; our balance feature (squared-fraction
/// distance times exp of the imbalance at stake) produces larger raw
/// values than theirs evidently did, so the YCSB preset here uses
/// balance=100 — large enough that balance dominates localization, small
/// enough not to thrash placements chasing tiny imbalances (calibrated
/// empirically; E9, bench_figures --figure=E9, sweeps the axis).
struct StrategyWeights {
  double balance = 1.0;
  double delay = 0.5;
  double intra_txn = 1.0;
  double inter_txn = 1.0;

  static StrategyWeights Ycsb() { return {100.0, 0.5, 3.0, 0.0}; }
  static StrategyWeights SmallBank() { return {1.0, 0.5, 3.0, 0.0}; }
  static StrategyWeights Tpcc() { return {0.01, 0.05, 0.88, 0.88}; }
};

/// One remastering decision's inputs: the write set (as partitions), where
/// each of those partitions is currently mastered, the client's session
/// vector, and the selector's (possibly slightly stale) view of each
/// site's version vector.
struct RemasterDecisionInput {
  std::vector<PartitionId> write_partitions;
  std::vector<SiteId> current_masters;  // parallel to write_partitions
  VersionVector client_session;
  std::vector<VersionVector> site_versions;  // per site
};

/// Per-site feature values, exposed so tests and the sensitivity
/// experiment (E9) can inspect the model's reasoning.
struct SiteScore {
  SiteId site = 0;
  double f_balance = 0;
  double f_refresh_delay = 0;  // missing-update count (a cost)
  double f_intra_txn = 0;
  double f_inter_txn = 0;
  double total = 0;
};

/// RemasterStrategy implements Section IV-A: a weighted linear model over
/// load balance (Eq. 2–4), refresh delay (Eq. 5) and co-access
/// localization (Eq. 6–7) that scores every site as a remastering
/// destination and picks the argmax (Eq. 8).
///
/// Note on Eq. 8's delay term: f_refresh_delay counts updates the
/// destination still has to apply — a cost — so it enters the combined
/// score negatively (see DESIGN.md).
class RemasterStrategy {
 public:
  RemasterStrategy(StrategyWeights weights, uint32_t num_sites)
      : weights_(weights), num_sites_(num_sites) {}

  /// Scores every site; `out` has one entry per site, in site order.
  void ScoreSites(const RemasterDecisionInput& input,
                  const AccessStatistics& stats,
                  std::vector<SiteScore>* out) const;

  /// Returns the best destination site (ties broken toward the site that
  /// already masters the most of the write set, minimizing transfers).
  SiteId ChooseSite(const RemasterDecisionInput& input,
                    const AccessStatistics& stats) const;

  /// Argmax + tie-break over already-computed scores. Split out from
  /// ChooseSite so the selector can score once and reuse the per-factor
  /// values for routing-explain telemetry.
  SiteId ChooseFromScores(const RemasterDecisionInput& input,
                          const std::vector<SiteScore>& scores) const;

  const StrategyWeights& weights() const { return weights_; }
  void set_weights(const StrategyWeights& w) { weights_ = w; }

  /// f_balance_dist: sum over sites of (1/m − freq_i)²; zero when
  /// perfectly balanced (Eq. 2 — see DESIGN.md on the printed formula).
  static double BalanceDistance(const std::vector<double>& site_fractions);

 private:
  double BalanceFeature(const RemasterDecisionInput& input,
                        const AccessStatistics& stats, SiteId candidate) const;
  double DelayFeature(const RemasterDecisionInput& input,
                      SiteId candidate) const;
  /// Shared implementation of Eq. 6 and Eq. 7 (they differ only in which
  /// co-access distribution they read).
  double LocalizationFeature(const RemasterDecisionInput& input,
                             const AccessStatistics& stats, SiteId candidate,
                             bool intra) const;

  StrategyWeights weights_;
  uint32_t num_sites_;
};

}  // namespace dynamast::selector

#endif  // DYNAMAST_SELECTOR_STRATEGY_H_
