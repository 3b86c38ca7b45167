// Reproduces Figure 9: pruning time vs searching time for the pruning
// configurations GBP-only, KPF-only, GBP+KPF and the OSF comparator, with
// CMA and POS as the downstream search algorithm, under DTW / EDR / ERP.

#include "bench/bench_common.h"

namespace trajsearch::bench {
namespace {

struct PruneConfig {
  std::string name;
  bool gbp;
  bool kpf;
  bool osf;
};

void Main(int argc, char** argv) {
  const BenchConfig config = ParseBenchConfig(argc, argv);
  PrintHeader("[Figure 9] Efficiency of pruning and searching (Xi'an)");
  const BenchDataset bench = MakeXian(config);
  WorkloadOptions wopts;
  wopts.count = std::max(2, config.queries / 2);
  wopts.min_length = bench.default_query_min;
  wopts.max_length = bench.default_query_max;
  wopts.seed = config.seed;
  const Workload workload = SampleQueries(bench.data, wopts);

  const std::vector<PruneConfig> prune_configs = {
      {"GBP", true, false, false},
      {"KPF", false, true, false},
      {"GBP+KPF", true, true, false},
      {"OSF", false, false, true},
  };
  const std::vector<DistanceSpec> specs = {
      DistanceSpec::Dtw(), DistanceSpec::Edr(bench.edr_epsilon),
      DistanceSpec::Erp(bench.erp_gap)};

  TablePrinter table({"Dist", "Pruning", "Search", "PruneTime (s)",
                      "SearchTime (s)", "Searched/Query"});
  for (const DistanceSpec& spec : specs) {
    for (const PruneConfig& pc : prune_configs) {
      for (const Algorithm algo : {Algorithm::kCma, Algorithm::kPos}) {
        EngineOptions options;
        options.spec = spec;
        options.algorithm = algo;
        options.use_gbp = pc.gbp;
        options.use_kpf = pc.kpf;
        options.use_osf = pc.osf;
        const SearchEngine engine(&bench.data, options);
        RunningStats prune_time, search_time, searched;
        for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
          QueryStats stats;
          engine.Query(workload.queries[qi], &stats,
                       workload.source_ids[qi]);
          // Pruning (GBP + bound checks) and the per-pair searches it
          // leaves, as disjoint times.
          prune_time.Add(stats.prune_seconds);
          search_time.Add(stats.pair_search_seconds);
          searched.Add(stats.searched);
        }
        table.AddRow({std::string(ToString(spec.kind)), pc.name,
                      std::string(ToString(algo)),
                      TablePrinter::Num(prune_time.Mean(), 4),
                      TablePrinter::Num(search_time.Mean(), 4),
                      TablePrinter::Num(searched.Mean(), 1)});
      }
    }
  }
  table.Print();
  std::printf(
      "\nShape check vs paper: GBP prunes cheaply but leaves more "
      "candidates; KPF prunes harder but its\nbound computation costs more; "
      "GBP+KPF gets the best of both and beats the OSF comparator.\n");
}

}  // namespace
}  // namespace trajsearch::bench

int main(int argc, char** argv) { trajsearch::bench::Main(argc, argv); }
