// Design-choice ablation (README "Synthetic presets and documented
// deviations"): θ semantics in Eq. 10 — the printed formula (agreement
// count lowers evidence) vs the prose-faithful normalized-mismatch
// realization used by default. The four (dataset, mode) cells run as one
// experiment sweep on the ANOT_THREADS pool.

#include <deque>

#include "common.h"

using namespace anot;
using namespace anot::bench;

int main() {
  PrintHeader("Ablation: Eq. 10 theta semantics (as printed vs mismatch)");
  ProtocolOptions popts;

  std::deque<Workload> workloads;
  for (const char* dataset : {"icews14", "gdelt"}) {
    workloads.push_back(MakeWorkload(dataset));
  }

  std::vector<SweepCell> cells;
  for (const Workload& w : workloads) {
    for (ThetaMode mode : {ThetaMode::kMismatch, ThetaMode::kAsPrinted}) {
      AnoTOptions options = SweepCellAnoTOptions(w.config.name);
      options.detector.theta_mode = mode;
      const char* mode_name = mode == ThetaMode::kMismatch
                                  ? "mismatch (default)"
                                  : "as printed";
      cells.push_back(
          MakeCell(w, popts, mode_name, ModelFactory<AnoTModel>(options)));
    }
  }
  const SweepResult sweep = RunHarnessSweep(std::move(cells));

  std::vector<std::vector<std::string>> rows;
  for (const SweepCellResult& cell : sweep.cells) {
    rows.push_back({cell.dataset, cell.label,
                    FormatDouble(cell.result.time.pr_auc, 3),
                    FormatDouble(cell.result.missing.pr_auc, 3)});
  }
  std::printf("%s\n",
              Reporter::RenderTable(
                  {"Dataset", "theta mode", "time AUC", "missing AUC"},
                  rows)
                  .c_str());
  return 0;
}
