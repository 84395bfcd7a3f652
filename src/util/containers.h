#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/lifetime.h"

/// \file Hot-path container library (vendored, single header).
///
/// The scorer/updater hot paths probe hash tables millions of times per
/// second; std::unordered_map pays a pointer chase per bucket node and
/// (for string keys in C++17) a heap-allocated temporary std::string per
/// heterogeneous probe. This header provides the replacements the
/// container-overhaul gates were built around:
///
///  * dense_map / dense_set — open-addressing robin-hood tables whose
///    elements live contiguously in a std::vector (the
///    ankerl::unordered_dense layout). Lookups touch one flat bucket
///    array plus one dense slot; iteration walks the slot vector in
///    *insertion order*, which — unlike std:: hash-order — is a
///    deterministic function of the operation sequence alone (erase
///    swap-removes, so post-erase order is still determined by the
///    mutation history, never by hash seeds or library versions).
///  * string_map — a dense table over std::string keys with a transparent
///    string_view hasher: probes take a string_view and never materialize
///    a temporary std::string (a Key is constructed only on actual
///    insertion).
///  * small_vec<T, N> — a vector with N elements of inline storage, for
///    adjacency / witness lists that are almost always tiny.
///
/// Determinism contract: iteration order is insertion order (amended by
/// swap-remove on erase) — reproducible across runs, platforms, and
/// standard-library versions, which is why tools/determinism_lint.py does
/// not treat these types as unordered containers. Code whose *results*
/// depend on iteration order must still be audited: the order is stable,
/// but it is a container-history artifact, not a meaningful sort key.
///
/// Invalidation rules differ from std::unordered_map: any insertion may
/// reallocate the slot vector (all iterators/references invalidated, like
/// std::vector), and erase moves the last element into the hole. Do not
/// hold references across mutations.

namespace anot {

namespace container_internal {

/// Finalizing mix (splitmix64). Applied by the table on top of the user
/// hash so identity hashes (std::hash<int> in libstdc++) still spread
/// over the high bits the bucket index is taken from.
inline uint64_t MixHash(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

template <class Slot>
struct KeyOfPair {
  const auto& operator()(const Slot& s ANOT_LIFETIME_BOUND) const {
    return s.first;
  }
};

template <class Key>
struct KeyIdentity {
  const Key& operator()(const Key& k ANOT_LIFETIME_BOUND) const { return k; }
};

/// \brief Core open-addressing table: dense slot storage + a flat bucket
/// array of (distance-from-home | fingerprint, slot index) pairs with
/// robin-hood displacement and backward-shift deletion.
template <class Slot, class KeyOf, class Hash, class KeyEqual>
class DenseTable {
 public:
  using iterator = typename std::vector<Slot>::iterator;
  using const_iterator = typename std::vector<Slot>::const_iterator;

  DenseTable() = default;

  iterator begin() { return slots_.begin(); }
  iterator end() { return slots_.end(); }
  const_iterator begin() const { return slots_.begin(); }
  const_iterator end() const { return slots_.end(); }

  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  void clear() {
    slots_.clear();
    std::fill(buckets_.begin(), buckets_.end(), Bucket{});
  }

  /// Pre-sizes both the slot vector and the bucket array for `n` elements
  /// so a bulk load performs no rehash.
  void reserve(size_t n) {
    slots_.reserve(n);
    const size_t needed = BucketCountFor(n);
    if (needed > buckets_.size()) Rehash(needed);
  }

  template <class K>
  const_iterator find(const K& key) const {
    const size_t b = FindBucket(key);
    return b == kNpos ? end() : begin() + buckets_[b].slot;
  }
  template <class K>
  iterator find(const K& key) {
    const size_t b = FindBucket(key);
    return b == kNpos ? end() : begin() + buckets_[b].slot;
  }
  template <class K>
  size_t count(const K& key) const {
    return FindBucket(key) == kNpos ? 0 : 1;
  }
  template <class K>
  bool contains(const K& key) const {
    return FindBucket(key) != kNpos;
  }

  /// Finds `key`, or inserts the slot produced by `make()` (which must
  /// carry a key equal to `key`). Returns (slot index, inserted).
  template <class K, class MakeSlot>
  std::pair<size_t, bool> FindOrEmplace(const K& key, MakeSlot&& make) {
    // The capacity check lives on the insertion path (not per call), so
    // pure find-hits pay only the probe loop.
    if (slots_.size() >= capacity_) {
      if (FindBucket(key) == kNpos) Grow();
    }
    const uint64_t h = HashOf(key);
    uint32_t dist_fp = kDistInc | (h & kFpMask);
    size_t idx = HomeBucket(h);
    while (true) {
      Bucket& b = buckets_[idx];
      if (dist_fp == b.dist_and_fp && eq_(KeyOf{}(slots_[b.slot]), key)) {
        return {static_cast<size_t>(b.slot), false};
      }
      if (dist_fp > b.dist_and_fp) {
        slots_.push_back(make());
        const uint32_t slot = static_cast<uint32_t>(slots_.size() - 1);
        PlaceAndShiftUp(Bucket{dist_fp, slot}, idx);
        return {static_cast<size_t>(slot), true};
      }
      dist_fp += kDistInc;
      idx = NextBucket(idx);
    }
  }

  template <class K>
  size_t erase(const K& key) {
    size_t idx = FindBucket(key);
    if (idx == kNpos) return 0;
    const uint32_t hole = buckets_[idx].slot;
    // Backward-shift deletion keeps every remaining probe chain compact,
    // so the table never accumulates tombstones.
    size_t next = NextBucket(idx);
    while (buckets_[next].dist_and_fp >= 2 * kDistInc) {
      buckets_[idx] =
          Bucket{buckets_[next].dist_and_fp - kDistInc, buckets_[next].slot};
      idx = next;
      next = NextBucket(idx);
    }
    buckets_[idx] = Bucket{};
    const uint32_t last = static_cast<uint32_t>(slots_.size() - 1);
    if (hole != last) {
      slots_[hole] = std::move(slots_[last]);
      // Repoint the bucket that referenced the moved slot. Its probe
      // chain starts at its home bucket and is contiguous, so a plain
      // walk terminates.
      size_t b = HomeBucket(HashOf(KeyOf{}(slots_[hole])));
      while (buckets_[b].slot != last) b = NextBucket(b);
      buckets_[b].slot = hole;
    }
    slots_.pop_back();
    return 1;
  }

 private:
  // Low 8 bucket bits carry a hash fingerprint; the rest count the probe
  // distance from the home bucket (starting at 1, so 0 == empty bucket).
  static constexpr uint32_t kDistInc = 1u << 8;
  static constexpr uint32_t kFpMask = kDistInc - 1;
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  static constexpr size_t kInitialBuckets = 16;
  // Max load factor 0.8, as numerator/denominator of bucket count.
  static constexpr size_t kLoadNum = 4;
  static constexpr size_t kLoadDen = 5;

  struct Bucket {
    uint32_t dist_and_fp = 0;
    uint32_t slot = 0;
  };

  template <class K>
  uint64_t HashOf(const K& key) const {
    return MixHash(static_cast<uint64_t>(hash_(key)));
  }
  size_t HomeBucket(uint64_t h) const { return h >> shift_; }
  size_t NextBucket(size_t idx) const {
    return idx + 1 < buckets_.size() ? idx + 1 : 0;
  }

  static size_t BucketCountFor(size_t n) {
    size_t buckets = kInitialBuckets;
    while (buckets * kLoadNum / kLoadDen < n) buckets *= 2;
    return buckets;
  }

  template <class K>
  size_t FindBucket(const K& key) const {
    if (buckets_.empty()) return kNpos;
    const uint64_t h = HashOf(key);
    uint32_t dist_fp = kDistInc | (h & kFpMask);
    size_t idx = HomeBucket(h);
    while (true) {
      const Bucket& b = buckets_[idx];
      if (dist_fp == b.dist_and_fp && eq_(KeyOf{}(slots_[b.slot]), key)) {
        return idx;
      }
      // Robin-hood invariant: entries along a chain carry non-decreasing
      // displacement, so the first poorer bucket proves absence.
      if (dist_fp > b.dist_and_fp) return kNpos;
      dist_fp += kDistInc;
      idx = NextBucket(idx);
    }
  }

  void PlaceAndShiftUp(Bucket b, size_t idx) {
    while (buckets_[idx].dist_and_fp != 0) {
      std::swap(b, buckets_[idx]);
      b.dist_and_fp += kDistInc;
      idx = NextBucket(idx);
    }
    buckets_[idx] = b;
  }

  void Grow() {
    Rehash(buckets_.empty() ? kInitialBuckets : buckets_.size() * 2);
  }

  void Rehash(size_t bucket_count) {
    buckets_.assign(bucket_count, Bucket{});
    capacity_ = bucket_count * kLoadNum / kLoadDen;
    uint8_t shift = 64;
    for (size_t b = 1; b < bucket_count; b *= 2) --shift;
    shift_ = shift;
    for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
      const uint64_t h = HashOf(KeyOf{}(slots_[slot]));
      uint32_t dist_fp = kDistInc | (h & kFpMask);
      size_t idx = HomeBucket(h);
      while (dist_fp <= buckets_[idx].dist_and_fp) {
        dist_fp += kDistInc;
        idx = NextBucket(idx);
      }
      PlaceAndShiftUp(Bucket{dist_fp, slot}, idx);
    }
  }

  std::vector<Slot> slots_;
  std::vector<Bucket> buckets_;
  size_t capacity_ = 0;  // buckets * max-load, cached at rehash
  uint8_t shift_ = 64;   // 64 - log2(buckets_.size()); unused while empty
  Hash hash_{};
  KeyEqual eq_{};
};

}  // namespace container_internal

/// Default hasher: std::hash, finalized by the table's avalanche mix.
template <class Key>
struct DenseHash {
  size_t operator()(const Key& key) const { return std::hash<Key>{}(key); }
};

/// Transparent string hasher: probes hash a string_view directly, so a
/// lookup with a string_view (or char*) never builds a std::string.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// \brief Open-addressing map with dense (insertion-ordered) storage.
///
/// API subset of std::unordered_map, with two deviations: value_type is
/// pair<Key, T> (non-const Key — required by swap-remove erase; do not
/// mutate keys through iterators), and insertion invalidates iterators
/// like std::vector does.
template <class Key, class T, class Hash = DenseHash<Key>,
          class KeyEqual = std::equal_to<>>
class dense_map {
  using Slot = std::pair<Key, T>;
  using Table =
      container_internal::DenseTable<Slot, container_internal::KeyOfPair<Slot>,
                                     Hash, KeyEqual>;

 public:
  using key_type = Key;
  using mapped_type = T;
  using value_type = Slot;
  using iterator = typename Table::iterator;
  using const_iterator = typename Table::const_iterator;

  dense_map() = default;

  iterator begin() { return table_.begin(); }
  iterator end() { return table_.end(); }
  const_iterator begin() const { return table_.begin(); }
  const_iterator end() const { return table_.end(); }

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  void clear() { table_.clear(); }
  void reserve(size_t n) { table_.reserve(n); }

  template <class K>
  iterator find(const K& key) {
    return table_.find(key);
  }
  template <class K>
  const_iterator find(const K& key) const {
    return table_.find(key);
  }
  template <class K>
  size_t count(const K& key) const {
    return table_.count(key);
  }
  template <class K>
  bool contains(const K& key) const {
    return table_.contains(key);
  }
  template <class K>
  size_t erase(const K& key) {
    return table_.erase(key);
  }

  /// try_emplace: `key` may be any type hashable/comparable against Key
  /// (e.g. string_view against std::string); Key is constructed from it
  /// only when the entry is actually inserted.
  template <class K, class... Args>
  std::pair<iterator, bool> try_emplace(K&& key, Args&&... args) {
    auto [slot, inserted] = table_.FindOrEmplace(key, [&] {
      return Slot(std::piecewise_construct,
                  std::forward_as_tuple(std::forward<K>(key)),
                  std::forward_as_tuple(std::forward<Args>(args)...));
    });
    return {table_.begin() + slot, inserted};
  }

  template <class K, class V>
  std::pair<iterator, bool> emplace(K&& key, V&& value) {
    return try_emplace(std::forward<K>(key), std::forward<V>(value));
  }
  std::pair<iterator, bool> insert(const value_type& v) {
    return try_emplace(v.first, v.second);
  }
  std::pair<iterator, bool> insert(value_type&& v) {
    return try_emplace(std::move(v.first), std::move(v.second));
  }

  template <class K>
  T& operator[](K&& key) ANOT_LIFETIME_BOUND {
    return try_emplace(std::forward<K>(key)).first->second;
  }

  template <class K>
  const T& at(const K& key) const ANOT_LIFETIME_BOUND {
    auto it = find(key);
    if (it == end()) throw std::out_of_range("dense_map::at: key not found");
    return it->second;
  }
  template <class K>
  T& at(const K& key) ANOT_LIFETIME_BOUND {
    auto it = find(key);
    if (it == end()) throw std::out_of_range("dense_map::at: key not found");
    return it->second;
  }

 private:
  Table table_;
};

/// \brief Open-addressing set with dense (insertion-ordered) storage.
/// Iteration is const-only: mutating a stored key would corrupt the index.
template <class Key, class Hash = DenseHash<Key>,
          class KeyEqual = std::equal_to<>>
class dense_set {
  using Table =
      container_internal::DenseTable<Key, container_internal::KeyIdentity<Key>,
                                     Hash, KeyEqual>;

 public:
  using key_type = Key;
  using value_type = Key;
  using iterator = typename Table::const_iterator;
  using const_iterator = typename Table::const_iterator;

  dense_set() = default;

  const_iterator begin() const { return table_.begin(); }
  const_iterator end() const { return table_.end(); }

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  void clear() { table_.clear(); }
  void reserve(size_t n) { table_.reserve(n); }

  template <class K>
  const_iterator find(const K& key) const {
    return table_.find(key);
  }
  template <class K>
  size_t count(const K& key) const {
    return table_.count(key);
  }
  template <class K>
  bool contains(const K& key) const {
    return table_.contains(key);
  }
  template <class K>
  size_t erase(const K& key) {
    return table_.erase(key);
  }

  template <class K>
  std::pair<const_iterator, bool> insert(K&& key) {
    auto [slot, inserted] = table_.FindOrEmplace(
        key, [&] { return Key(std::forward<K>(key)); });
    return {table_.begin() + slot, inserted};
  }

  /// Order-insensitive equality (matches std::unordered_set semantics).
  friend bool operator==(const dense_set& a, const dense_set& b) {
    if (a.size() != b.size()) return false;
    for (const Key& k : a) {
      if (!b.contains(k)) return false;
    }
    return true;
  }
  friend bool operator!=(const dense_set& a, const dense_set& b) {
    return !(a == b);
  }

 private:
  Table table_;
};

/// Dense map over interned string keys with allocation-free string_view
/// probes.
template <class T>
using string_map =
    dense_map<std::string, T, TransparentStringHash, std::equal_to<>>;

/// \brief Vector with N elements of inline storage; spills to the heap
/// beyond that. Covers the std::vector API surface the adjacency and
/// witness-list call sites use.
template <class T, size_t N = 8>
class small_vec {
  static_assert(N > 0, "small_vec requires at least one inline slot");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  small_vec() noexcept : data_(InlinePtr()) {}
  small_vec(std::initializer_list<T> init) : small_vec() {
    assign(init.begin(), init.end());
  }
  small_vec(const small_vec& other) : small_vec() {
    assign(other.begin(), other.end());
  }
  small_vec(small_vec&& other) noexcept : small_vec() {
    StealOrMove(std::move(other));
  }
  small_vec& operator=(const small_vec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  small_vec& operator=(small_vec&& other) noexcept {
    if (this != &other) {
      Reset();
      StealOrMove(std::move(other));
    }
    return *this;
  }
  small_vec& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }
  template <class Alloc>
  small_vec& operator=(const std::vector<T, Alloc>& v) {
    assign(v.begin(), v.end());
    return *this;
  }
  ~small_vec() { Reset(); }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  T& operator[](size_t i) ANOT_LIFETIME_BOUND { return data_[i]; }
  const T& operator[](size_t i) const ANOT_LIFETIME_BOUND {
    return data_[i];
  }
  T& front() ANOT_LIFETIME_BOUND { return data_[0]; }
  const T& front() const ANOT_LIFETIME_BOUND { return data_[0]; }
  T& back() ANOT_LIFETIME_BOUND { return data_[size_ - 1]; }
  const T& back() const ANOT_LIFETIME_BOUND { return data_[size_ - 1]; }

  void clear() {
    DestroyRange(data_, data_ + size_);
    size_ = 0;
  }

  void reserve(size_t n) {
    if (n <= capacity_) return;
    size_t cap = capacity_;
    while (cap < n) cap *= 2;
    T* fresh = std::allocator<T>{}.allocate(cap);
    for (size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
    }
    DestroyRange(data_, data_ + size_);
    ReleaseHeap();
    data_ = fresh;
    capacity_ = cap;
  }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }
  template <class... Args>
  T& emplace_back(Args&&... args) ANOT_LIFETIME_BOUND {
    if (size_ == capacity_) reserve(size_ + 1);
    ::new (static_cast<void*>(data_ + size_)) T(std::forward<Args>(args)...);
    return data_[size_++];
  }

  void pop_back() {
    --size_;
    data_[size_].~T();
  }

  iterator insert(const_iterator pos, const T& v) {
    const size_t idx = static_cast<size_t>(pos - data_);
    if (size_ == capacity_) reserve(size_ + 1);
    if (idx == size_) {
      emplace_back(v);
    } else {
      ::new (static_cast<void*>(data_ + size_)) T(std::move(data_[size_ - 1]));
      for (size_t i = size_ - 1; i > idx; --i) data_[i] = std::move(data_[i - 1]);
      data_[idx] = v;
      ++size_;
    }
    return data_ + idx;
  }

  iterator erase(const_iterator first, const_iterator last) {
    T* f = data_ + (first - data_);
    T* l = data_ + (last - data_);
    T* new_end = std::move(l, data_ + size_, f);
    DestroyRange(new_end, data_ + size_);
    size_ = static_cast<size_t>(new_end - data_);
    return f;
  }

  template <class It>
  void assign(It first, It last) {
    clear();
    const size_t n = static_cast<size_t>(std::distance(first, last));
    reserve(n);
    for (; first != last; ++first) emplace_back(*first);
  }

  friend bool operator==(const small_vec& a, const small_vec& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const small_vec& a, const small_vec& b) {
    return !(a == b);
  }
  template <class Alloc>
  friend bool operator==(const small_vec& a, const std::vector<T, Alloc>& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  template <class Alloc>
  friend bool operator==(const std::vector<T, Alloc>& a, const small_vec& b) {
    return b == a;
  }
  template <class Alloc>
  friend bool operator!=(const small_vec& a, const std::vector<T, Alloc>& b) {
    return !(a == b);
  }
  template <class Alloc>
  friend bool operator!=(const std::vector<T, Alloc>& a, const small_vec& b) {
    return !(b == a);
  }

 private:
  T* InlinePtr() ANOT_LIFETIME_BOUND {
    return reinterpret_cast<T*>(inline_storage_);
  }
  bool IsInline() const {
    return data_ == reinterpret_cast<const T*>(inline_storage_);
  }

  static void DestroyRange(T* first, T* last) {
    for (; first != last; ++first) first->~T();
  }

  void ReleaseHeap() {
    if (!IsInline()) std::allocator<T>{}.deallocate(data_, capacity_);
  }

  /// Destroys contents and returns to the empty inline state.
  void Reset() {
    DestroyRange(data_, data_ + size_);
    ReleaseHeap();
    data_ = InlinePtr();
    size_ = 0;
    capacity_ = N;
  }

  /// Adopts `other`'s heap buffer when it has one, else moves the inline
  /// elements. `other` is left empty and inline either way.
  void StealOrMove(small_vec&& other) noexcept {
    if (other.IsInline()) {
      for (size_t i = 0; i < other.size_; ++i) {
        ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
      }
      size_ = other.size_;
      DestroyRange(other.data_, other.data_ + other.size_);
      other.size_ = 0;
    } else {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.InlinePtr();
      other.size_ = 0;
      other.capacity_ = N;
    }
  }

  // anot-own: points at inline_storage_ below or at a heap block this
  // small_vec allocated and frees in Reset(); never borrows external memory.
  T* data_;
  size_t size_ = 0;
  size_t capacity_ = N;
  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
};

/// \brief Sorted flat set over a small_vec: ascending unique elements,
/// binary-search membership, inline storage for the first N.
///
/// The right shape for sets that stay tiny and are probed often (e.g.
/// per-entity directed relation-token sets R(e)): membership is a branch
/// over one or two cache lines, iteration is ascending — deterministic
/// AND meaningful, unlike any hash order — and tiny sets allocate
/// nothing.
template <class T, size_t N = 8>
class sorted_small_set {
 public:
  using value_type = T;
  using const_iterator = const T*;

  sorted_small_set() = default;

  const_iterator begin() const { return vec_.begin(); }
  const_iterator end() const { return vec_.end(); }
  size_t size() const { return vec_.size(); }
  bool empty() const { return vec_.empty(); }
  void clear() { vec_.clear(); }
  void reserve(size_t n) { vec_.reserve(n); }

  /// Inserts keeping ascending order; returns false when already present.
  bool insert(const T& v) {
    auto it = std::lower_bound(vec_.begin(), vec_.end(), v);
    if (it != vec_.end() && *it == v) return false;
    vec_.insert(it, v);
    return true;
  }

  size_t count(const T& v) const {
    return std::binary_search(vec_.begin(), vec_.end(), v) ? 1 : 0;
  }
  bool contains(const T& v) const { return count(v) != 0; }

  friend bool operator==(const sorted_small_set& a,
                         const sorted_small_set& b) {
    return a.vec_ == b.vec_;
  }
  friend bool operator!=(const sorted_small_set& a,
                         const sorted_small_set& b) {
    return !(a == b);
  }

 private:
  small_vec<T, N> vec_;
};

}  // namespace anot
