#include "tkg/graph.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace anot {

namespace {
const TemporalKnowledgeGraph::TokenSet kEmptyTokenSet;
}  // namespace

void TemporalKnowledgeGraph::InsertSortedByTime(std::vector<FactId>* list,
                                                FactId id) {
  // Streaming appends arrive in (mostly) ascending time order, so the
  // common case is push_back; out-of-order facts pay a short backward scan.
  const Timestamp t = facts_[id].time;
  if (list->empty() || facts_[list->back()].time <= t) {
    list->push_back(id);
    return;
  }
  auto pos = std::upper_bound(
      list->begin(), list->end(), t,
      [this](Timestamp lhs, FactId rhs) { return lhs < facts_[rhs].time; });
  list->insert(pos, id);
}

Status TemporalKnowledgeGraph::ValidateFact(const Fact& fact) {
  if (fact.subject == kInvalidId || fact.object == kInvalidId ||
      fact.relation == kInvalidId) {
    return Status::InvalidArgument("fact carries invalid ids");
  }
  if (fact.end < fact.time) {
    return Status::InvalidArgument("fact ends before it starts");
  }
  return Status::OK();
}

FactId TemporalKnowledgeGraph::AddFact(const Fact& added) {
  ANOT_CHECK_OK(ValidateFact(added));

  // A copy, since `added` may be one of facts_' own elements, which the
  // push below can reallocate.
  const Fact fact = added;
  const FactId id = static_cast<FactId>(facts_.size());
  facts_.push_back(fact);

  num_entities_ = std::max(
      num_entities_,
      static_cast<size_t>(std::max(fact.subject, fact.object)) + 1);
  num_relations_ =
      std::max(num_relations_, static_cast<size_t>(fact.relation) + 1);
  if (fact.end != fact.time) has_durations_ = true;
  if (min_time_ == kNoTimestamp || fact.time < min_time_) {
    min_time_ = fact.time;
  }
  if (max_time_ == kNoTimestamp || fact.time > max_time_) {
    max_time_ = fact.time;
  }

  by_time_[fact.time].push_back(id);
  InsertSortedByTime(&pair_index_[PairKey(fact.subject, fact.object)], id);
  InsertSortedByTime(&subject_index_[fact.subject], id);

  if (relation_tokens_.size() < num_entities_) {
    relation_tokens_.resize(num_entities_);
  }
  relation_tokens_[fact.subject].insert(OutRelationToken(fact.relation));
  relation_tokens_[fact.object].insert(InRelationToken(fact.relation));
  return id;
}

FactId TemporalKnowledgeGraph::AddFact(std::string_view subject,
                                       std::string_view relation,
                                       std::string_view object,
                                       Timestamp time) {
  return AddFact(subject, relation, object, time, time);
}

FactId TemporalKnowledgeGraph::AddFact(std::string_view subject,
                                       std::string_view relation,
                                       std::string_view object,
                                       Timestamp start, Timestamp end) {
  const EntityId s = entity_dict_.GetOrAdd(subject);
  const RelationId r = relation_dict_.GetOrAdd(relation);
  const EntityId o = entity_dict_.GetOrAdd(object);
  return AddFact(Fact(s, r, o, start, end));
}

const std::vector<FactId>* TemporalKnowledgeGraph::FactsForPair(
    EntityId s, EntityId o) const {
  auto it = pair_index_.find(PairKey(s, o));
  return it == pair_index_.end() ? nullptr : &it->second;
}

const std::vector<FactId>* TemporalKnowledgeGraph::FactsBySubject(
    EntityId e) const {
  auto it = subject_index_.find(e);
  return it == subject_index_.end() ? nullptr : &it->second;
}

const TemporalKnowledgeGraph::TokenSet& TemporalKnowledgeGraph::RelationTokens(
    EntityId e) const {
  if (e >= relation_tokens_.size()) return kEmptyTokenSet;
  return relation_tokens_[e];
}

bool TemporalKnowledgeGraph::Contains(const Fact& fact) const {
  const std::vector<FactId>* seq = FactsForPair(fact.subject, fact.object);
  if (seq == nullptr) return false;
  auto it = std::lower_bound(
      seq->begin(), seq->end(), fact.time,
      [this](FactId lhs, Timestamp t) { return facts_[lhs].time < t; });
  for (; it != seq->end() && facts_[*it].time == fact.time; ++it) {
    if (facts_[*it] == fact) return true;
  }
  return false;
}

bool TemporalKnowledgeGraph::ContainsTriple(EntityId s, RelationId r,
                                            EntityId o) const {
  const std::vector<FactId>* seq = FactsForPair(s, o);
  if (seq == nullptr) return false;
  return std::any_of(seq->begin(), seq->end(),
                     [this, r](FactId id) { return facts_[id].relation == r; });
}

void TemporalKnowledgeGraph::Reserve(size_t expected_facts) {
  facts_.reserve(expected_facts);
  // Distinct pairs and entities sit well below the fact count on every
  // real TKG; heuristic pre-sizes absorb most growth without committing
  // a fact-count slot array per index (growth still works past them).
  pair_index_.reserve(expected_facts / 2 + 1);
  subject_index_.reserve(expected_facts / 8 + 1);
}

std::string TemporalKnowledgeGraph::EntityName(EntityId e) const {
  if (e < entity_dict_.size()) return entity_dict_.Name(e);
  return "E" + std::to_string(e);
}

std::string TemporalKnowledgeGraph::RelationName(RelationId r) const {
  if (r < relation_dict_.size()) return relation_dict_.Name(r);
  return "R" + std::to_string(r);
}

Status TemporalKnowledgeGraph::Validate() const {
  size_t want_entities = 0;
  size_t want_relations = 0;
  bool want_durations = false;
  Timestamp want_min = kNoTimestamp;
  Timestamp want_max = kNoTimestamp;
  for (FactId id = 0; id < facts_.size(); ++id) {
    const Fact& f = facts_[id];
    const Status st = ValidateFact(f);
    if (!st.ok()) {
      return Status::Internal(StrFormat("fact %u: %s", id,
                                        st.message().c_str()));
    }
    want_entities = std::max(
        want_entities,
        static_cast<size_t>(std::max(f.subject, f.object)) + 1);
    want_relations =
        std::max(want_relations, static_cast<size_t>(f.relation) + 1);
    if (f.end != f.time) want_durations = true;
    if (want_min == kNoTimestamp || f.time < want_min) want_min = f.time;
    if (want_max == kNoTimestamp || f.time > want_max) want_max = f.time;
  }
  if (num_entities_ != want_entities) {
    return Status::Internal("entity universe diverged from the fact log");
  }
  if (num_relations_ != want_relations) {
    return Status::Internal("relation universe diverged from the fact log");
  }
  if (has_durations_ != want_durations) {
    return Status::Internal("duration flag diverged from the fact log");
  }
  if (min_time_ != want_min || max_time_ != want_max) {
    return Status::Internal("time bounds diverged from the fact log");
  }
  return Status::OK();
}

void TemporalKnowledgeGraph::CheckInvariants() const {
#ifdef ANOT_VALIDATE
  ANOT_CHECK_OK(Validate());
  // Recompute every secondary index from the primary fact store and demand
  // exact agreement. AddFact maintains all of them incrementally; any
  // divergence means a mutation corrupted an index.
  std::map<Timestamp, std::vector<FactId>> want_by_time;
  dense_map<uint64_t, std::vector<FactId>> want_pairs;
  dense_map<EntityId, std::vector<FactId>> want_subjects;

  for (FactId id = 0; id < facts_.size(); ++id) {
    const Fact& f = facts_[id];
    want_by_time[f.time].push_back(id);
    want_pairs[PairKey(f.subject, f.object)].push_back(id);
    want_subjects[f.subject].push_back(id);
  }
  // by_time_ buckets are push_back'd in arrival (= id) order, exactly how
  // the recompute appends them; the pair/subject lists are stably sorted by
  // (time, id), so sort the recomputed lists the same way before the exact
  // comparison — equality then covers content and order at once.
  ANOT_CHECK(by_time_ == want_by_time) << "by-time index diverged";
  auto sort_by_time_id = [this](std::vector<FactId>* list) {
    std::sort(list->begin(), list->end(), [this](FactId a, FactId b) {
      if (facts_[a].time != facts_[b].time) {
        return facts_[a].time < facts_[b].time;
      }
      return a < b;
    });
  };
  for (auto& [key, list] : want_pairs) {
    (void)key;
    sort_by_time_id(&list);
  }
  for (auto& [e, list] : want_subjects) {
    (void)e;
    sort_by_time_id(&list);
  }
  auto check_sorted_lists =
      [this](const dense_map<uint64_t, std::vector<FactId>>& got,
             const char* what) {
        for (const auto& [key, list] : got) {
          (void)key;
          ANOT_CHECK(!list.empty()) << what << " holds an empty bucket";
          for (size_t i = 1; i < list.size(); ++i) {
            const Fact& a = facts_[list[i - 1]];
            const Fact& b = facts_[list[i]];
            ANOT_CHECK(a.time < b.time ||
                       (a.time == b.time && list[i - 1] < list[i]))
                << what << " bucket not sorted by (time, id)";
          }
        }
      };
  check_sorted_lists(pair_index_, "pair index");
  ANOT_CHECK(pair_index_.size() == want_pairs.size() &&
             [&] {
               for (const auto& [key, list] : want_pairs) {
                 auto it = pair_index_.find(key);
                 if (it == pair_index_.end() || it->second != list) {
                   return false;
                 }
               }
               return true;
             }())
      << "pair index diverged";
  ANOT_CHECK(subject_index_.size() == want_subjects.size())
      << "subject index size diverged";
  for (const auto& [e, list] : want_subjects) {
    auto it = subject_index_.find(e);
    ANOT_CHECK(it != subject_index_.end() && it->second == list)
        << "subject index diverged for entity " << e;
  }

  ANOT_CHECK(relation_tokens_.size() == num_entities_)
      << "relation-token table size diverged";
  std::vector<TokenSet> want_tokens(num_entities_);
  for (const Fact& f : facts_) {
    want_tokens[f.subject].insert(OutRelationToken(f.relation));
    want_tokens[f.object].insert(InRelationToken(f.relation));
  }
  for (EntityId e = 0; e < num_entities_; ++e) {
    ANOT_CHECK(relation_tokens_[e] == want_tokens[e])
        << "relation tokens diverged for entity " << e;
  }
#endif  // ANOT_VALIDATE
}

}  // namespace anot
