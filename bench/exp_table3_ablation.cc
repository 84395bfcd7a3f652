// Table 3: ablations of AnoT's components on all four datasets —
// category aggregation, updater, triadic edges, recursion, ranking
// strategy, and the |A_v| -> 1 weight replacement. All 28 (dataset,
// variant) cells run as one experiment sweep on the ANOT_THREADS pool.

#include <deque>

#include "common.h"

using namespace anot;
using namespace anot::bench;

int main() {
  PrintHeader("Table 3: component ablations");
  ProtocolOptions popts;

  struct Variant {
    // anot-own: points at a string literal in the initializer list below
    // (static storage, outlives everything)
    const char* name;
    void (*apply)(AnoTOptions*);
    /// False for "-updater": the protocol feeds no knowledge back.
    bool observe_valid = true;
  };
  const std::vector<Variant> variants = {
      {"-category aggregation",
       [](AnoTOptions* o) {
         o->detector.category.max_aggregation_rounds = 0;
       }},
      {"-updater", [](AnoTOptions*) {}, /*observe_valid=*/false},
      {"-triadic edges",
       [](AnoTOptions* o) { o->detector.use_triadic = false; }},
      {"-recursive strategy",
       [](AnoTOptions* o) { o->detector.use_recursion = false; }},
      {"rank by |A| only",
       [](AnoTOptions* o) {
         o->detector.ranking = RankingMode::kAssertionsOnly;
       }},
      {"|A_v| -> 1",
       [](AnoTOptions* o) { o->detector.unit_rule_weight = true; }},
      {"original", [](AnoTOptions*) {}},
  };

  std::deque<Workload> workloads;
  for (const char* dataset : {"icews14", "icews05-15", "yago11k", "gdelt"}) {
    workloads.push_back(MakeWorkload(dataset));
    std::printf("dataset %s ...\n", workloads.back().config.name.c_str());
  }

  std::vector<SweepCell> cells;
  for (const Workload& w : workloads) {
    for (const Variant& v : variants) {
      AnoTOptions options = SweepCellAnoTOptions(w.config.name);
      v.apply(&options);
      ProtocolOptions cell_popts = popts;
      cell_popts.observe_valid = v.observe_valid;
      cells.push_back(MakeCell(w, cell_popts, v.name,
                               ModelFactory<AnoTModel>(options,
                                                       std::string(v.name))));
    }
  }
  const std::vector<EvalResult> results =
      RunHarnessSweep(std::move(cells)).Results();
  std::printf("\n%s", Reporter::RenderComparison(results).c_str());
  return 0;
}
