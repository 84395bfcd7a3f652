#pragma once

#include <cstdint>
#include <limits>

namespace anot {

/// Integer handles for interned symbols. 32 bits comfortably covers the
/// paper's datasets (|E| <= ~13k, |R| <= ~251) and leaves room for
/// web-scale graphs.
using EntityId = uint32_t;
using RelationId = uint32_t;
using CategoryId = uint32_t;
using FactId = uint32_t;

/// Timestamps are integer ticks whose granularity the dataset defines
/// (days for ICEWS/YAGO, minutes for GDELT, years for Wikidata).
using Timestamp = int64_t;

inline constexpr uint32_t kInvalidId = std::numeric_limits<uint32_t>::max();
inline constexpr Timestamp kNoTimestamp =
    std::numeric_limits<Timestamp>::min();

/// \brief A unit of knowledge (s, r, o, t) — or (s, r, o, t_start, t_end)
/// for time-duration TKGs; point facts have end == time.
struct Fact {
  EntityId subject = kInvalidId;
  RelationId relation = kInvalidId;
  EntityId object = kInvalidId;
  Timestamp time = 0;
  Timestamp end = 0;

  Fact() = default;
  Fact(EntityId s, RelationId r, EntityId o, Timestamp t)
      : subject(s), relation(r), object(o), time(t), end(t) {}
  Fact(EntityId s, RelationId r, EntityId o, Timestamp t_start,
       Timestamp t_end)
      : subject(s), relation(r), object(o), time(t_start), end(t_end) {}

  bool operator==(const Fact& other) const {
    return subject == other.subject && relation == other.relation &&
           object == other.object && time == other.time && end == other.end;
  }

  /// The persisted field list, in checkpoint order (io/checkpoint.cc).
  template <class V>
  void Fields(V& v) {
    v(subject);
    v(relation);
    v(object);
    v(time);
    v(end);
  }
};

/// Directed relation token: entity category mining distinguishes an entity
/// appearing as the *subject* of r from appearing as the *object* of r
/// (the paper's [Born_out] vs [Born_in] in Figure 3).
inline uint32_t OutRelationToken(RelationId r) { return 2u * r; }
inline uint32_t InRelationToken(RelationId r) { return 2u * r + 1u; }
inline bool IsOutToken(uint32_t token) { return (token & 1u) == 0; }
inline RelationId TokenRelation(uint32_t token) { return token >> 1; }

/// Packs an entity pair into a 64-bit index key.
inline uint64_t PairKey(EntityId s, EntityId o) {
  return (static_cast<uint64_t>(s) << 32) | o;
}

namespace internal {
inline uint64_t HashMix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace internal

}  // namespace anot
