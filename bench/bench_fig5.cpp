// Figure 5: the paper's four probability panels, one table each, with
// q = 2*sqrt(n) and o in {1.6, 1.7, 1.8}:
//
//   top-left      P(agreement) vs n, f/n = 0.2
//   top-right     P(termination in view) vs n, f/n = 0.2
//   bottom-left   P(agreement) vs f/n, n = 100
//   bottom-right  P(termination in view) vs f/n, n = 100
//
// Agreement assumes faulty leaders in every view (optimal split attack).
// Columns per o:
//   Pviol         — 1 - P(agreement), closed-form model incl. the
//                   equivocation-blocking defense;
//   mc_viol       — Monte-Carlo (sampling level, blocking-aware) fraction
//                   of attack trials with opposite decisions;
//   mc_viol_qOnly — the same trials counting quorum formation only.
//
// Termination assumes a correct leader after GST. Columns per o:
//   exact — per-replica decision probability from the binomial model
//           (prepare quorum x commit quorum);
//   mc    — Monte-Carlo (sampling level) per-replica decision rate;
//   mcAll — over n: Theorem 3's event (EVERY correct replica decides);
//   bound — over f/n: Corollary 2's quorum-formation bound, which is what
//           the paper's panel plots (its drop toward ~0.25 near f/n = 0.3
//           matches the bound; the exact model stays higher).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "sim/montecarlo.hpp"

namespace {

using namespace probft;
using namespace probft::bench;

constexpr int kTrials = 4000;
constexpr double kOs[] = {1.6, 1.7, 1.8};

/// One table row: the cluster size and faulty fraction it is drawn at.
struct Row {
  std::int64_t n;
  double f_ratio;
};

/// The x-axis of a panel: n over [100, 300] at f/n = 0.2, or f/n over
/// [0.10, 0.30] at n = 100.
std::vector<Row> rows(bool over_n) {
  std::vector<Row> out;
  if (over_n) {
    for (std::int64_t n = 100; n <= 300; n += 50) out.push_back({n, 0.2});
  } else {
    for (double f : {0.10, 0.15, 0.20, 0.25, 0.30}) out.push_back({100, f});
  }
  return out;
}

/// Prints one panel. Each cell is printed by `cell(params, seed)`, with a
/// Monte-Carlo seed of `seed_base` plus n (over n) or 100·f/n (over f/n).
template <typename Cell>
void print_panel(const char* figure, const char* description, bool over_n,
                 const char* (&columns)[3], std::uint64_t seed_base,
                 Cell cell, const char* shape) {
  print_header(figure, description);
  std::printf("%-6s", over_n ? "n" : "f/n");
  for (double o : kOs) {
    std::printf(" %s(o=%.1f) %s(o=%.1f) %s(o=%.1f)", columns[0], o,
                columns[1], o, columns[2], o);
  }
  std::printf("\n");
  for (const Row& row : rows(over_n)) {
    if (over_n) {
      std::printf("%-6lld", static_cast<long long>(row.n));
    } else {
      std::printf("%-6.2f", row.f_ratio);
    }
    const std::uint64_t seed =
        seed_base + (over_n ? static_cast<std::uint64_t>(row.n)
                            : static_cast<std::uint64_t>(row.f_ratio * 100));
    for (double o : kOs) cell(paper_params(row.n, row.f_ratio, o), seed);
    std::printf("\n");
  }
  std::fputs(shape, stdout);
}

void agreement_cell(const quorum::Params& p, std::uint64_t seed) {
  const auto mc = sim::mc_agreement_optimal_split(p, kTrials, seed);
  std::printf(" %-12.3e %-14.6f %-21.6f", quorum::view_disagreement_exact(p),
              mc.violation_rate, mc.violation_rate_quorum_only);
}

void print_figure() {
  const char* agreement[3] = {"Pviol", "mc_viol", "mc_viol_qOnly"};
  const char* termination_n[3] = {"exact", "mc", " mcAll"};
  const char* termination_f[3] = {"exact", "mc", " bound"};
  print_panel(
      "Figure 5 top-left",
      "P(agreement) vs n under the optimal-split attack, f/n = 0.2",
      /*over_n=*/true, agreement, 1000, agreement_cell,
      "\nShape check (paper): P(agreement) = 1 - Pviol stays in [0.999, 1]\n"
      "and improves with n. Pviol is the blocking-aware closed form;\n"
      "mc_viol (4000 trials) should be 0. mc_viol_qOnly counts quorum\n"
      "formation only — the quantity the paper's Lemma 5 bounds — and is\n"
      "large: the equivocation-detection rule (Alg. 1 lines 23-25) is what\n"
      "actually protects agreement at these parameters (see "
      "EXPERIMENTS.md).\n");
  print_panel(
      "Figure 5 top-right",
      "P(termination in view) vs n, correct leader after GST, f/n = 0.2",
      /*over_n=*/true, termination_n, 2000,
      [](const quorum::Params& p, std::uint64_t seed) {
        const auto mc = sim::mc_termination(p, kTrials, seed);
        std::printf(" %-12.6f %-11.6f %-12.6f",
                    quorum::replica_termination_exact(p), mc.per_replica_rate,
                    mc.all_rate);
      },
      "\nShape check (paper): probability of deciding increases with n and\n"
      "with o. `exact`/`mc` are per-replica (Lemma 4's event); `mcAll` is\n"
      "Theorem 3's event (EVERY correct replica decides in the view).\n");
  print_panel(
      "Figure 5 bottom-left",
      "P(agreement) vs f/n under the optimal-split attack, n = 100",
      /*over_n=*/false, agreement, 3000, agreement_cell,
      "\nShape check (paper): P(agreement) = 1 - Pviol decreases as f/n\n"
      "grows toward 1/3 but stays in the paper's [0.999, 1] band. The\n"
      "quorum-only column shows why the blocking rule is load-bearing.\n");
  print_panel(
      "Figure 5 bottom-right",
      "P(termination in view) vs f/n, n = 100, correct leader after GST",
      /*over_n=*/false, termination_f, 4000,
      [](const quorum::Params& p, std::uint64_t seed) {
        const auto mc = sim::mc_termination(p, kTrials, seed);
        std::printf(" %-12.6f %-11.6f %-12.6f",
                    quorum::replica_termination_exact(p), mc.per_replica_rate,
                    quorum::quorum_formation_bound(p));
      },
      "\nShape check (paper): termination probability falls as f/n grows;\n"
      "the bound column reaches ~0.26 at f/n = 0.3, o = 1.7 — matching the\n"
      "0.25 tick on the paper's y-axis.\n");
}

// Kernel timings: args are n and 100·f/n.
void BM_McAgreement(benchmark::State& state) {
  const auto p = paper_params(
      state.range(0), static_cast<double>(state.range(1)) / 100.0, 1.7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::mc_agreement_optimal_split(p, 200, 9));
  }
}
BENCHMARK(BM_McAgreement)
    ->Args({100, 20})
    ->Args({300, 20})
    ->Args({100, 10})
    ->Args({100, 30})
    ->ArgNames({"n", "f_pct"})
    ->Unit(benchmark::kMillisecond);

void BM_McTermination(benchmark::State& state) {
  const auto p = paper_params(
      state.range(0), static_cast<double>(state.range(1)) / 100.0, 1.7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::mc_termination(p, 200, 9));
  }
}
BENCHMARK(BM_McTermination)
    ->Args({100, 20})
    ->Args({300, 20})
    ->Args({100, 10})
    ->Args({100, 30})
    ->ArgNames({"n", "f_pct"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
