// Self-test fixtures for tools/determinism_lint.py — the MUST-FLAG half.
// Every line marked `// expect-flag: <rule>` must fire exactly that rule;
// any other finding in this file fails the self-test. The snippets are
// distilled from bugs this repo has had or nearly had: hash-order escaping
// into output, float reductions over hash order, and pointer-keyed
// ordering. This file is a lint fixture, not part of the build.

#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace lint_fixture {

// Ordering keyed by pointers replays the allocator's address assignment
// into iteration order — different every run.
std::map<int*, int> votes_by_node;  // expect-flag: pointer-key

struct Node {
  double weight = 0.0;
};
std::set<const Node*> frontier;  // expect-flag: pointer-key

struct AddressOrdered {
  std::less<Node*> before;  // expect-flag: pointer-key
};

// Hash-order iteration escaping into an output list (the merge/output
// pattern: callers see a different order every run).
void CollectSeen(const std::unordered_set<int>& seen, std::vector<int>* out) {
  for (int v : seen) {  // expect-flag: unordered-iter
    out->push_back(v);
  }
}

// Hash-order iteration folded into a merge target.
std::vector<int> MergeCounts(const std::unordered_map<int, int>& counts) {
  std::vector<int> merged;
  for (const auto& [key, count] : counts) {  // expect-flag: unordered-iter
    merged.push_back(key + count);
  }
  return merged;
}

// Iterator-form loop over an unordered container: same hazard, different
// syntax.
int FirstPositive(const std::unordered_map<int, int>& counts) {
  for (auto it = counts.begin(); it != counts.end(); ++it) {  // expect-flag: unordered-iter
    if (it->second > 0) return it->first;
  }
  return -1;
}

// Floating-point reduction in hash order: the element set is fixed but
// float addition is not associative, so the sum's bit pattern depends on
// iteration order. Must be the float-accum rule, not plain unordered-iter.
double TotalWeight(const std::unordered_map<int, double>& weights) {
  double total = 0.0;
  for (const auto& [key, w] : weights) {  // expect-flag: float-accum
    total += w;
  }
  return total;
}

// A member declared here, iterated in a later function — the symbol table
// must resolve the member, not just locals.
class Tally {
 public:
  void Emit(std::vector<int>* out) const;

 private:
  std::unordered_map<int, int> buckets_;
  friend void EmitTally(const Tally&, std::vector<int>*);
};

void Tally::Emit(std::vector<int>* out) const {
  for (const auto& [bucket, count] : buckets_) {  // expect-flag: unordered-iter
    out->push_back(bucket * count);
  }
}

// An annotation WITHOUT the mandatory reason does not suppress.
void AnnotatedWithoutReason(const std::unordered_set<int>& seen,
                            std::vector<int>* out) {
  // anot-lint: ordered-ok
  for (int v : seen) {  // expect-flag: unordered-iter
    out->push_back(v);
  }
}

// An annotation that suppresses nothing (here, above a loop over a
// vector) claims an audit no code needs, and would silently cover an
// unordered loop added beside it later.
int SumInOrder(const std::vector<int>& values) {
  int total = 0;
  // anot-lint: ordered-ok a vector iterates in index order  // expect-flag: stale-annotation
  for (int v : values) total += v;
  return total;
}

}  // namespace lint_fixture
