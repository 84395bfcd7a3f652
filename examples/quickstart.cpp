// Quickstart: build AnoT on a tiny hand-written TKG and score a few
// pieces of new knowledge, printing the interpretable evidence.
//
//   ./build/examples/quickstart

#include <cstdio>

#include "core/anot.h"
#include "tkg/graph.h"

using namespace anot;

int main() {
  // A miniature political-events TKG: elections are followed by
  // presidencies, presidencies by outgoing-president events.
  TemporalKnowledgeGraph tkg;
  const char* people[] = {"obama",  "bush",   "clinton", "macron",
                          "merkel", "lula",   "modi",    "ardern"};
  const char* countries[] = {"usa",    "usa",   "usa",   "france",
                             "germany", "brazil", "india", "nz"};
  Timestamp t = 0;
  for (int term = 0; term < 6; ++term) {
    for (int i = 0; i < 8; ++i) {
      tkg.AddFact(people[i], "win_election", countries[i], t + 2 * i);
      tkg.AddFact(people[i], "president_of", countries[i], t + 2 * i + 4);
      tkg.AddFact(people[i], "make_statement", countries[i], t + 2 * i + 5);
      tkg.AddFact(people[i], "make_statement", countries[i], t + 2 * i + 7);
      tkg.AddFact(people[i], "outgoing_president", countries[i],
                  t + 2 * i + 20);
    }
    // Background diplomacy widens the relation universe.
    for (int i = 0; i < 8; ++i) {
      tkg.AddFact(countries[i], "host_visit", countries[(i + 1) % 8],
                  t + 3 * i);
      tkg.AddFact(countries[i], "sign_agreement", countries[(i + 3) % 8],
                  t + 3 * i + 2);
    }
    t += 40;
  }

  AnoTOptions options;
  options.detector.category.min_support = 2;
  options.detector.timespan_tolerance = 3;
  AnoT anot = AnoT::Build(tkg, options);

  std::printf("rule graph: %zu rules, %zu edges; %.0f%% of facts explained\n\n",
              anot.rules().num_rules(), anot.rules().num_edges(),
              100 * anot.report().explained_fraction);

  Explainer explainer = anot.MakeExplainer();
  auto inspect = [&](const char* label, const Fact& fact) {
    Evidence evidence;
    const Scores s = anot.Score(fact, &evidence);
    std::printf("--- %s ---\n", label);
    std::printf("%s", explainer.RenderEvidence(fact, evidence).c_str());
    std::printf("static score %.4g | temporal score %.4g\n\n",
                s.static_score, s.temporal_score);
  };

  const EntityId macron = *tkg.entity_dict().TryGet("macron");
  const EntityId france = *tkg.entity_dict().TryGet("france");
  const EntityId usa = *tkg.entity_dict().TryGet("usa");
  const RelationId win = *tkg.relation_dict().TryGet("win_election");
  const RelationId pres = *tkg.relation_dict().TryGet("president_of");

  // 1. Valid knowledge: a presidency 4 ticks after macron's last
  // election (term 5 starts at t=200; macron is slot 3 => win at 206).
  Fact valid(macron, pres, france, 210);
  inspect("valid: macron president_of france shortly after election",
          valid);

  // 2. Conceptual error: a country winning an election over a person.
  Fact conceptual(usa, win, macron, 210);
  inspect("conceptual error: usa win_election macron", conceptual);

  // 3. Time error: presidency long before any election.
  Fact time_error(macron, pres, usa, 1);
  inspect("suspicious: presidency with no supporting precursor",
          time_error);

  return 0;
}
