// Parameterized property sweeps (TEST_P) across protocol configurations and
// seeds: safety must hold in EVERY run; liveness in every run with a
// correct leader after GST and honest-majority parameters.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sim/cluster.hpp"
#include "sim/montecarlo.hpp"

namespace probft::sim {
namespace {

// ---------------------------------------------------------------------
// Sweep 1: happy-path liveness + agreement across (protocol, n, seed).
// ---------------------------------------------------------------------

using HappyParams = std::tuple<Protocol, std::uint32_t, std::uint64_t>;

std::string happy_name(const ::testing::TestParamInfo<HappyParams>& info) {
  const Protocol protocol = std::get<0>(info.param);
  const char* name = protocol == Protocol::kProbft ? "probft"
                     : protocol == Protocol::kPbft ? "pbft"
                                                   : "hotstuff";
  return std::string(name) + "_n" + std::to_string(std::get<1>(info.param)) +
         "_s" + std::to_string(std::get<2>(info.param));
}

class HappyPathSweep : public ::testing::TestWithParam<HappyParams> {};

TEST_P(HappyPathSweep, DecidesWithAgreement) {
  const auto [protocol, n, seed] = GetParam();
  ClusterConfig cfg;
  cfg.protocol = protocol;
  cfg.n = n;
  cfg.f = 0;
  cfg.seed = seed;
  cfg.latency.max_delay_post = 5'000;
  cfg.sync.base_timeout = 150'000;
  Cluster cluster(cfg);
  cluster.start();
  ASSERT_TRUE(cluster.run_to_completion()) << "n=" << n << " seed=" << seed;
  EXPECT_TRUE(cluster.agreement_ok());
  EXPECT_EQ(cluster.correct_decided_count(), n);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, HappyPathSweep,
    ::testing::Combine(::testing::Values(Protocol::kProbft, Protocol::kPbft,
                                         Protocol::kHotStuff),
                       ::testing::Values(7U, 13U, 21U),
                       ::testing::Values(1ULL, 2ULL, 3ULL)),
    happy_name);

// ---------------------------------------------------------------------
// Sweep 2: ProBFT agreement under the optimal split attack, many seeds.
// ---------------------------------------------------------------------

class AttackSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AttackSweep, NoDisagreementUnderOptimalSplit) {
  const std::uint64_t seed = GetParam();
  ClusterConfig cfg;
  cfg.protocol = Protocol::kProbft;
  cfg.n = 16;
  cfg.f = 5;
  cfg.l = 1.5;
  cfg.seed = seed;
  cfg.split = SplitStrategy::kOptimal;
  cfg.behaviors.assign(16, Behavior::kHonest);
  cfg.behaviors[0] = Behavior::kEquivocateLeader;
  for (int i = 1; i < 5; ++i) cfg.behaviors[i] = Behavior::kColludeFollower;
  Cluster cluster(cfg);
  cluster.start();
  cluster.run_to_completion(/*deadline=*/90'000'000);
  EXPECT_TRUE(cluster.agreement_ok()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttackSweep,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{26}));

// ---------------------------------------------------------------------
// Sweep 3: ProBFT liveness with f silent replicas across (n, f, seed).
// ---------------------------------------------------------------------

using SilentParams = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;

std::string silent_name(const ::testing::TestParamInfo<SilentParams>& info) {
  return std::string("n") + std::to_string(std::get<0>(info.param)) +
         "_f" + std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

class SilentSweep : public ::testing::TestWithParam<SilentParams> {};

TEST_P(SilentSweep, LivenessDespiteSilentReplicas) {
  const auto [n, f, seed] = GetParam();
  ClusterConfig cfg;
  cfg.protocol = Protocol::kProbft;
  cfg.n = n;
  cfg.f = f;
  cfg.l = 1.2;  // keep q comfortably below n - f for small clusters
  cfg.seed = seed;
  cfg.sync.base_timeout = 150'000;
  cfg.behaviors.assign(n, Behavior::kHonest);
  for (std::uint32_t i = 0; i < f; ++i) {
    cfg.behaviors[n - 1 - i] = Behavior::kSilent;  // keep leader 1 honest
  }
  Cluster cluster(cfg);
  cluster.start();
  ASSERT_TRUE(cluster.run_to_completion(/*deadline=*/120'000'000))
      << "n=" << n << " f=" << f << " seed=" << seed;
  EXPECT_TRUE(cluster.agreement_ok());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SilentSweep,
    ::testing::Combine(::testing::Values(10U, 16U), ::testing::Values(1U, 3U),
                       ::testing::Values(11ULL, 12ULL)),
    silent_name);

// ---------------------------------------------------------------------
// Sweep 4: analytic invariants across the full paper parameter grid.
// ---------------------------------------------------------------------

using GridParams = std::tuple<std::int64_t, double, double>;

std::string grid_name(const ::testing::TestParamInfo<GridParams>& info) {
  return std::string("n") + std::to_string(std::get<0>(info.param)) +
         "_f" +
         std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
         "_o" +
         std::to_string(static_cast<int>(std::get<2>(info.param) * 10));
}

class AnalysisSweep : public ::testing::TestWithParam<GridParams> {};

TEST_P(AnalysisSweep, BoundsAndExactsAreConsistent) {
  const auto [n, f_ratio, o] = GetParam();
  quorum::Params p;
  p.n = n;
  p.f = static_cast<std::int64_t>(n * f_ratio);
  p.o = o;
  p.l = 2.0;
  ASSERT_TRUE(p.valid());

  // All quantities are probabilities.
  for (double v :
       {quorum::quorum_formation_bound(p), quorum::quorum_formation_exact(p),
        quorum::replica_termination_exact(p),
        quorum::all_termination_exact(p), quorum::view_agreement_exact(p),
        quorum::view_disagreement_exact(p),
        quorum::cross_view_violation_bound(p)}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_LE(quorum::quorum_formation_bound(p),
            quorum::quorum_formation_exact(p) + 1e-12);
  EXPECT_LE(quorum::all_termination_exact(p),
            quorum::replica_termination_exact(p) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, AnalysisSweep,
    ::testing::Combine(::testing::Values(100L, 150L, 200L, 250L, 300L),
                       ::testing::Values(0.1, 0.2, 0.3),
                       ::testing::Values(1.6, 1.7, 1.8)),
    grid_name);

// ---------------------------------------------------------------------
// Sweep 5: Monte-Carlo vs exact formula over a parameter grid.
// ---------------------------------------------------------------------

class McConsistencySweep : public ::testing::TestWithParam<GridParams> {};

TEST_P(McConsistencySweep, PrepareQuorumRateTracksBinomialTail) {
  const auto [n, f_ratio, o] = GetParam();
  quorum::Params p;
  p.n = n;
  p.f = static_cast<std::int64_t>(n * f_ratio);
  p.o = o;
  p.l = 2.0;
  const auto stats = mc_termination(p, 1500, 99);
  EXPECT_NEAR(stats.prepare_quorum_rate, quorum::quorum_formation_exact(p),
              0.05);
}

INSTANTIATE_TEST_SUITE_P(
    McGrid, McConsistencySweep,
    ::testing::Combine(::testing::Values(64L, 100L, 144L),
                       ::testing::Values(0.1, 0.25),
                       ::testing::Values(1.6, 1.8)),
    grid_name);


// ---------------------------------------------------------------------
// Sweep 6: full-protocol happy path across the paper's (o, l) grid.
// ---------------------------------------------------------------------

using OlParams = std::tuple<double, double, std::uint64_t>;

std::string ol_name(const ::testing::TestParamInfo<OlParams>& info) {
  return std::string("o") +
         std::to_string(static_cast<int>(std::get<0>(info.param) * 10)) +
         "_l" + std::to_string(static_cast<int>(std::get<1>(info.param) * 10)) +
         "_s" + std::to_string(std::get<2>(info.param));
}

class OlGridSweep : public ::testing::TestWithParam<OlParams> {};

TEST_P(OlGridSweep, ProbftDecidesAcrossParameterGrid) {
  const auto [o, l, seed] = GetParam();
  ClusterConfig cfg;
  cfg.protocol = Protocol::kProbft;
  cfg.n = 25;
  cfg.f = 0;
  cfg.o = o;
  cfg.l = l;
  cfg.seed = seed;
  cfg.sync.base_timeout = 120'000;
  Cluster cluster(cfg);
  cluster.start();
  ASSERT_TRUE(cluster.run_to_completion(/*deadline=*/200'000'000))
      << "o=" << o << " l=" << l << " seed=" << seed;
  EXPECT_TRUE(cluster.agreement_ok());
  EXPECT_EQ(cluster.correct_decided_count(), 25U);
}

INSTANTIATE_TEST_SUITE_P(
    OlGrid, OlGridSweep,
    ::testing::Combine(::testing::Values(1.6, 1.7, 1.8),
                       ::testing::Values(1.5, 2.0),
                       ::testing::Values(1ULL, 2ULL)),
    ol_name);

}  // namespace
}  // namespace probft::sim
