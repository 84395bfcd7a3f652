// Table 7: time-duration TKG (Wikidata) — F0.5 of the embedding baselines
// vs AnoT with and without the updater (four-rule-graph strategy, §4.7).

#include "common.h"

using namespace anot;
using namespace anot::bench;

int main() {
  PrintHeader("Table 7: duration-based TKG (Wikidata)");
  Workload w = MakeWorkload("wikidata");
  ProtocolOptions popts;
  popts.injector.perturb_durations = true;

  // One sweep cell per model: six embedding baselines + two AnoT
  // variants, all fit/scored on the ANOT_THREADS pool.
  std::vector<SweepCell> cells;
  for (const char* baseline :
       {"DE", "TA", "Timeplex", "TNT", "TELM", "RE-GCN"}) {
    cells.push_back(BaselineCell(w, popts, baseline));
  }
  {
    AnoTOptions options = SweepCellAnoTOptions(w.config.name);
    ProtocolOptions no_updater = popts;
    no_updater.observe_valid = false;
    cells.push_back(MakeCell(
        w, no_updater, "AnoT(-updater)",
        ModelFactory<DurationAnoTModel>(options,
                                        DurationStrategy::kFourGraphs,
                                        std::string("AnoT(-updater)"))));
  }
  {
    AnoTOptions options = SweepCellAnoTOptions(w.config.name);
    cells.push_back(MakeCell(
        w, popts, "AnoT",
        ModelFactory<DurationAnoTModel>(options,
                                        DurationStrategy::kFourGraphs,
                                        std::string("AnoT"))));
  }
  const std::vector<EvalResult> results =
      RunHarnessSweep(std::move(cells)).Results();

  std::vector<std::vector<std::string>> rows;
  for (const auto& r : results) {
    rows.push_back({r.model, FormatDouble(r.conceptual.f_beta, 3),
                    FormatDouble(r.time.f_beta, 3),
                    FormatDouble(r.missing.f_beta, 3)});
  }
  std::printf("%s\n",
              Reporter::RenderTable(
                  {"Model", "Conceptual F0.5", "Time F0.5", "Missing F0.5"},
                  rows)
                  .c_str());
  return 0;
}
