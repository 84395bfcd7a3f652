#include "io/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "core/monitor.h"
#include "core/options.h"
#include "core/updater.h"
#include "mining/category_function.h"
#include "rulegraph/rule_graph.h"
#include "tkg/graph.h"
#include "util/lifetime.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace anot {

namespace {

static_assert(sizeof(size_t) == 8, "the format stores sizes as u64");

/// How a bounded field is stored: an enum as one byte, an integer as is.
template <class T>
using Stored = std::conditional_t<std::is_enum_v<T>, uint8_t, T>;

// ------------------------------------------------------------ byte codec

/// Append-only little-endian encoder, and the encoding visitor of the
/// `Fields` lists. Every integer is written at its own width (bool as one
/// byte), an enum as one byte, and a double as its IEEE-754 bit pattern,
/// so a round trip is bit-exact.
class ByteWriter {
 public:
  template <class T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  void operator()(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<char>(static_cast<uint64_t>(v) >> (8 * i)));
    }
  }
  void operator()(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    (*this)(bits);
  }
  /// A bounded field (an enum, num_threads, the timespan tolerance): the
  /// bound is the reader's.
  template <class T>
  void operator()(T v, T /*max*/) {
    (*this)(static_cast<Stored<T>>(v));
  }

  /// Walks a struct's field list. The list takes a mutable reference so
  /// one list serves both directions; the writer only reads through it.
  template <class T>
  void Put(const T& x) {
    const_cast<T&>(x).Fields(*this);
  }
  /// A count followed by the elements.
  template <class L>
  void List(const L& list) {
    (*this)(list.size());
    for (const auto& x : list) (*this)(x);
  }
  void Append(const std::string& s) { out_.append(s); }

  const std::string& bytes() const ANOT_LIFETIME_BOUND { return out_; }

 private:
  std::string out_;
};

/// Bounds-checked little-endian decoder over a borrowed byte range, and the
/// decoding visitor of the `Fields` lists. The first failure latches: the
/// reader records what went wrong, exhausts itself, and every later read
/// yields zero, so a truncated or corrupt payload can never become UB and a
/// section checks ok() once, before it uses what it read. Decoded fields
/// obey the uniform rules: a bool is 0 or 1, a double is finite, and a
/// bounded field (an enum, num_threads, the timespan tolerance) lies in
/// [0, bound].
class ByteReader {
 public:
  // anot-own: borrows the checkpoint byte buffer owned by Load()'s stack
  // frame (or a sub-range of it), which strictly outlives every reader.
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  template <class T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  void operator()(T& v) {
    if (remaining() < sizeof(T)) return Fail("truncated or corrupt bytes");
    uint64_t raw = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      raw |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += sizeof(T);
    if (std::is_same_v<T, bool> && raw > 1) return Fail("value out of range");
    v = static_cast<T>(raw);
  }
  void operator()(double& v) {
    uint64_t bits = 0;
    (*this)(bits);
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) Fail("non-finite value");
  }
  template <class T>
  void operator()(T& v, T max) {
    Stored<T> raw{};
    (*this)(raw);
    if (raw > static_cast<Stored<T>>(max)) return Fail("value out of range");
    if constexpr (std::is_signed_v<Stored<T>>) {
      if (raw < 0) return Fail("value out of range");
    }
    v = static_cast<T>(raw);
  }

  template <class T>
  void Get(T& x) {
    x.Fields(*this);
  }
  template <class L>
  void List(L& list) {
    const size_t n = Count(sizeof(typename L::value_type));
    list.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      typename L::value_type x{};
      (*this)(x);
      list.push_back(x);
    }
  }
  /// Reads a container count and rejects counts whose minimal encoding
  /// exceeds the bytes left — a corrupt count must fail here, not drive a
  /// multi-gigabyte allocation.
  size_t Count(size_t min_bytes_per_elem) {
    size_t n = 0;
    (*this)(n);
    if (n <= remaining() / min_bytes_per_elem) return n;
    Fail("truncated or corrupt bytes");
    return 0;
  }
  /// Carves `len` <= remaining() bytes (a section payload) off the front.
  ByteReader Sub(size_t len) {
    ByteReader sub(data_ + pos_, len);
    pos_ += len;
    return sub;
  }

  bool ok() const { return error_ == nullptr; }
  Status status() const {
    return ok() ? Status::OK() : Status::InvalidArgument(error_);
  }
  size_t remaining() const { return size_ - pos_; }

 private:
  void Fail(const char* what) {
    if (error_ == nullptr) error_ = what;
    pos_ = size_;
  }

  // anot-own: borrowed view into Load()'s byte buffer; see constructor.
  const char* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  // anot-own: points at a string literal passed to Fail (static storage).
  const char* error_ = nullptr;
};

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("checkpoint: " + what);
}

}  // namespace

// ----------------------------------------------------------------- codec
//
// Codec is a nested member of Checkpoint, so its static functions inherit
// the friendship AnoT / CategoryFunction / Monitor / Updater grant to the
// Checkpoint class — private state is serialized without widening any
// public API. Public structs carry their own `Fields` lists; the lists of
// private state live here.
//
// Each decoder reads its whole section first and checks ok() before it
// uses a value. It then runs the structure's Validate(), or the Status
// precondition of the mutator it calls next, so malformed state comes back
// as a Status before any ANOT_CHECK-bearing constructor or mutator sees
// it. The checks left here are about the bytes: ids against another
// section's universe, duplicates a mutator would merge silently, and
// canonical order.

struct Checkpoint::Codec {
  // -- section 1: options ---------------------------------------------------

  static void EncodeOptions(const AnoT& s, ByteWriter& w) {
    w.Put(*s.options_);
  }

  static Status DecodeOptions(ByteReader& in, AnoT& s) {
    s.options_ = std::make_unique<AnoTOptions>();
    in.Get(*s.options_);
    return in.status();
  }

  // -- section 2: dictionaries + fact log -----------------------------------

  static void EncodeGraph(const AnoT& s, ByteWriter& w) {
    const TemporalKnowledgeGraph& g = *s.graph_;
    for (const Dictionary* dict : {&g.entity_dict(), &g.relation_dict()}) {
      w(dict->size());
      for (size_t i = 0; i < dict->size(); ++i) w.List(dict->Name(i));
    }
    w(g.num_entities());
    w(g.num_relations());
    w(g.num_facts());
    for (const Fact& f : g.facts()) w.Put(f);
  }

  static Status DecodeGraph(ByteReader& in, AnoT& s) {
    std::vector<std::string> names[2];
    for (std::vector<std::string>& list : names) {
      list.resize(in.Count(8));
      for (std::string& name : list) in.List(name);
    }
    size_t num_entities = 0;
    size_t num_relations = 0;
    in(num_entities);
    in(num_relations);
    std::vector<Fact> facts(in.Count(28));
    for (Fact& f : facts) in.Get(f);
    ANOT_RETURN_NOT_OK(in.status());

    s.graph_ = std::make_unique<TemporalKnowledgeGraph>();
    TemporalKnowledgeGraph& g = *s.graph_;
    Dictionary* dicts[2] = {&g.entity_dict(), &g.relation_dict()};
    for (size_t d = 0; d < 2; ++d) {
      dicts[d]->Reserve(names[d].size());
      for (const std::string& name : names[d]) dicts[d]->GetOrAdd(name);
      if (dicts[d]->size() != names[d].size()) {
        return Status::InvalidArgument("duplicate name in a dictionary");
      }
    }
    // Fact ids are u32 and kInvalidId is reserved, so a universe at or
    // beyond kInvalidId cannot have been written by Save.
    if (num_entities >= kInvalidId || num_relations >= kInvalidId) {
      return Status::InvalidArgument("universe size exceeds the id space");
    }
    g.Reserve(facts.size());
    for (const Fact& f : facts) {
      ANOT_RETURN_NOT_OK(TemporalKnowledgeGraph::ValidateFact(f));
      if (f.subject >= num_entities || f.object >= num_entities ||
          f.relation >= num_relations) {
        return Status::InvalidArgument(
            "fact references an unknown entity or relation");
      }
      g.AddFact(f);
    }
    // Replaying the fact log rebuilds every secondary index and the
    // universe counters; the declared sizes must match exactly (Save
    // derives both from the same log).
    if (g.num_entities() != num_entities ||
        g.num_relations() != num_relations) {
      return Status::InvalidArgument(
          "universe sizes disagree with the fact log");
    }
    return Status::OK();
  }

  // -- section 3: category function -----------------------------------------

  static void EncodeCategories(const AnoT& s, ByteWriter& w) {
    const CategoryFunction& fn = *s.categories_;
    w(fn.categories_.size());
    for (const auto& info : fn.categories_) w.Put(info);
  }

  /// Reads the category list and derives C(e) and the token index from it.
  /// Each category is checked before AddCategory sees it, so a corrupt
  /// member id fails here instead of indexing past C(e).
  static Status DecodeCategories(ByteReader& in, AnoT& s) {
    std::vector<CategoryFunction::CategoryInfo> categories(in.Count(16));
    for (auto& info : categories) in.Get(info);
    ANOT_RETURN_NOT_OK(in.status());

    const size_t num_entities = s.graph_->num_entities();
    s.categories_ = std::make_unique<CategoryFunction>();
    CategoryFunction& fn = *s.categories_;
    fn.entity_categories_.resize(num_entities);
    for (CategoryId c = 0; c < categories.size(); ++c) {
      CategoryFunction::CategoryInfo& info = categories[c];
      ANOT_RETURN_NOT_OK(
          CategoryFunction::ValidateCategory(c, info, num_entities));
      fn.AddCategory(std::move(info.tokens), std::move(info.members));
    }
    return Status::OK();
  }

  // -- section 4: rule graph ------------------------------------------------

  /// One rule-table entry: the rule, its support and its flag bits.
  struct RuleRecord {
    static constexpr uint8_t kStaticSelected = 1;
    static constexpr uint8_t kRecurrent = 2;
    AtomicRule rule;
    uint32_t support = 0;
    uint8_t flags = 0;

    template <class V>
    void Fields(V& v) {
      rule.Fields(v);
      v(support);
      v(flags, static_cast<uint8_t>(kStaticSelected | kRecurrent));
    }
  };

  static void EncodeRules(const AnoT& s, ByteWriter& w) {
    const RuleGraph& rg = *s.rules_;
    w(rg.num_rules());
    for (RuleId id = 0; id < rg.num_rules(); ++id) {
      const auto flags = static_cast<uint8_t>(
          (rg.static_selected(id) ? RuleRecord::kStaticSelected : 0) |
          (rg.recurrent(id) ? RuleRecord::kRecurrent : 0));
      w.Put(RuleRecord{rg.rule(id), rg.support(id), flags});
    }
    w(rg.num_edges());
    for (RuleEdgeId id = 0; id < rg.num_edges(); ++id) w.Put(rg.edge(id));
  }

  static Status DecodeRules(ByteReader& in, AnoT& s) {
    std::vector<RuleRecord> rules(in.Count(17));
    for (RuleRecord& r : rules) in.Get(r);
    std::vector<RuleEdge> edges(in.Count(25));
    for (RuleEdge& e : edges) in.Get(e);
    ANOT_RETURN_NOT_OK(in.status());

    s.rules_ = std::make_unique<RuleGraph>();
    RuleGraph& rg = *s.rules_;
    for (RuleId id = 0; id < rules.size(); ++id) {
      const RuleRecord& r = rules[id];
      ANOT_RETURN_NOT_OK(r.rule.ValidateIds(s.categories_->num_categories(),
                                            s.graph_->num_relations()));
      const bool selected = (r.flags & RuleRecord::kStaticSelected) != 0;
      if (rg.AddRule(r.rule, selected) != id) {
        return Status::InvalidArgument("duplicate rule node");
      }
      rg.SetSupport(id, r.support);
      rg.SetRecurrent(id, (r.flags & RuleRecord::kRecurrent) != 0);
    }
    for (const RuleEdge& e : edges) {
      ANOT_RETURN_NOT_OK(rg.ValidateEdge(e));
      // AddEdge merges duplicates silently; a duplicate here means the
      // file does not describe a valid edge table.
      if (rg.FindEdge(e.kind, e.head, e.mid, e.tail).has_value()) {
        return Status::InvalidArgument("duplicate rule edge");
      }
      rg.AddEdge(e);
    }
    return Status::OK();
  }

  // -- section 5: build report ----------------------------------------------

  static void EncodeReport(const AnoT& s, ByteWriter& w) { w.Put(s.report_); }

  static Status DecodeReport(ByteReader& in, AnoT& s) {
    in.Get(s.report_);
    return in.status();
  }

  // -- section 6: monitor ---------------------------------------------------

  /// The monitor's persisted scalars: the online accumulation and the open
  /// bucket. Its budget and universes are the report's, which is decoded
  /// first.
  template <class M, class V>
  static void MonitorFields(M& m, V& v) {
    v(m.online_bits_);
    v(m.bucket_time_);
    v(m.bucket_total_);
    v(m.bucket_mapped_);
    v(m.bucket_associated_);
  }

  static void EncodeMonitor(const AnoT& s, ByteWriter& w) {
    MonitorFields(*s.monitor_, w);
  }

  static Status DecodeMonitor(ByteReader& in, AnoT& s) {
    s.monitor_ = std::make_unique<Monitor>(s.report_);
    MonitorFields(*s.monitor_, in);
    ANOT_RETURN_NOT_OK(in.status());
    return s.monitor_->Validate();
  }

  // -- section 7: updater pending-rule table --------------------------------

  /// Writes the pending patterns (rule, support) in LRU order, head (most
  /// recently touched) first: the only order that matters behaviorally
  /// (eviction), and a deterministic one, so it is the canonical order.
  static void EncodeUpdater(const AnoT& s, ByteWriter& w) {
    const Updater& u = *s.updater_;
    w(u.pending_index_.size());
    for (uint32_t i = u.pending_head_; i != Updater::kNil;
         i = u.pending_nodes_[i].next) {
      w.Put(u.pending_nodes_[i]);
    }
  }

  /// Reads the records straight into the node vector in file order, so
  /// node i links to its neighbours i - 1 and i + 1, node 0 is the head
  /// and the free list is empty.
  static Status DecodeUpdater(ByteReader& in, AnoT& s) {
    std::vector<Updater::PendingNode> nodes(in.Count(16));
    for (Updater::PendingNode& node : nodes) in.Get(node);
    ANOT_RETURN_NOT_OK(in.status());
    // Validate() checks the cap too; here it also keeps every node id
    // below the u32 link space before any link is written.
    if (nodes.size() > Updater::kMaxPendingRules) {
      return Status::InvalidArgument("pending table exceeds its cap");
    }

    s.RecreateServingObjects();
    Updater& u = *s.updater_;
    const auto n = static_cast<uint32_t>(nodes.size());
    u.pending_index_.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (!u.pending_index_.try_emplace(nodes[i].rule, i).second) {
        return Status::InvalidArgument("duplicate pending rule");
      }
      nodes[i].prev = i == 0 ? Updater::kNil : i - 1;
      nodes[i].next = i + 1 == n ? Updater::kNil : i + 1;
    }
    if (n != 0) {
      u.pending_head_ = 0;
      u.pending_tail_ = n - 1;
    }
    u.pending_nodes_ = std::move(nodes);
    return u.Validate();
  }

  // -- section 8: serving scalars -------------------------------------------

  template <class S, class V>
  static void ServingFields(S& s, V& v) {
    v(s.static_threshold_);
    v(s.temporal_threshold_);
    v(s.refresh_count_);
  }

  static void EncodeServing(const AnoT& s, ByteWriter& w) {
    ServingFields(s, w);
  }

  static Status DecodeServing(ByteReader& in, AnoT& s) {
    ServingFields(s, in);
    return in.status();
  }

  // -- whole-file assembly --------------------------------------------------

  /// The sections in their fixed file order; a section's id is its index
  /// plus one. The reader rejects any other order or id, which keeps the
  /// format canonical: there is exactly one byte sequence per detector
  /// state, so save(load(save(x))) == save(x).
  struct Section {
    // anot-own: points at a string literal in kSections (static storage).
    const char* name;
    void (*encode)(const AnoT&, ByteWriter&);
    Status (*decode)(ByteReader&, AnoT&);
  };
  static constexpr Section kSections[] = {
      {"options", EncodeOptions, DecodeOptions},
      {"graph", EncodeGraph, DecodeGraph},
      {"categories", EncodeCategories, DecodeCategories},
      {"rules", EncodeRules, DecodeRules},
      {"report", EncodeReport, DecodeReport},
      {"monitor", EncodeMonitor, DecodeMonitor},
      {"updater", EncodeUpdater, DecodeUpdater},
      {"serving", EncodeServing, DecodeServing},
  };
  static constexpr uint32_t kNumSections = std::size(kSections);

  static std::string EncodeAll(const AnoT& s) {
    ByteWriter out;
    out.Append(std::string(Checkpoint::kMagic, sizeof(Checkpoint::kMagic)));
    out(Checkpoint::kFormatVersion);
    out(kNumSections);
    for (uint32_t id = 1; id <= kNumSections; ++id) {
      ByteWriter payload;
      kSections[id - 1].encode(s, payload);
      out(id);
      out(payload.bytes().size());
      out.Append(payload.bytes());
    }
    out(Checkpoint::Checksum(out.bytes().data(), out.bytes().size()));
    return out.bytes();
  }

  static Status DecodeAll(const std::string& bytes, AnoT* out) {
    constexpr size_t kMagicSize = sizeof(Checkpoint::kMagic);
    constexpr size_t kMinSize = kMagicSize + 4 + 4 + 8;  // header + footer
    if (bytes.size() < kMinSize) {
      return Corrupt("file too short to be a checkpoint");
    }
    if (std::memcmp(bytes.data(), Checkpoint::kMagic, kMagicSize) != 0) {
      return Corrupt("bad magic — not an AnoT checkpoint file");
    }
    // kMinSize guarantees the version, section count and footer reads.
    ByteReader top(bytes.data() + kMagicSize, bytes.size() - kMagicSize - 8);
    uint32_t version = 0;
    top(version);
    if (version != Checkpoint::kFormatVersion) {
      return Corrupt(StrFormat("format version %u is not readable by this "
                               "build (expects version %u)",
                               version, Checkpoint::kFormatVersion));
    }
    ByteReader footer(bytes.data() + bytes.size() - 8, 8);
    uint64_t want_checksum = 0;
    footer(want_checksum);
    if (Checkpoint::Checksum(bytes.data(), bytes.size() - 8) !=
        want_checksum) {
      return Corrupt("checksum mismatch (truncated or corrupt file)");
    }
    uint32_t num_sections = 0;
    top(num_sections);
    if (num_sections != kNumSections) {
      return Corrupt("unexpected section count");
    }

    for (uint32_t i = 0; i < kNumSections; ++i) {
      uint32_t id = 0;
      uint64_t len = 0;
      top(id);
      top(len);
      if (!top.ok() || len > top.remaining()) {
        return Corrupt("section length exceeds the file size");
      }
      if (id != i + 1) {
        return Corrupt("sections out of order or unknown section id");
      }
      ByteReader section = top.Sub(static_cast<size_t>(len));
      Status st = kSections[i].decode(section, *out);
      if (st.ok() && section.remaining() != 0) {
        st = Status::InvalidArgument("trailing bytes inside the section");
      }
      if (!st.ok()) {
        return Corrupt(std::string(kSections[i].name) +
                       " section: " + st.message());
      }
    }
    if (top.remaining() != 0) {
      return Corrupt("trailing bytes after the last section");
    }
    return Status::OK();
  }
};

// ----------------------------------------------------------- entry points

uint64_t Checkpoint::Checksum(const void* data, size_t size) {
  // FNV-1a 64.
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

Status Checkpoint::Save(const AnoT& system, const std::string& path) {
  if (system.async_ != nullptr) {
    return Status::FailedPrecondition(
        "checkpoint: a background refresh is in flight; quiesce with "
        "FinishRefresh() (or Refresh()) before saving");
  }
  const std::string bytes = Codec::EncodeAll(system);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("checkpoint: cannot open " + tmp +
                             " for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("checkpoint: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("checkpoint: cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<AnoT> Checkpoint::Load(const std::string& path) {
  // One read into a buffer sized to the file. file_size fails on anything
  // but a regular file, so a directory, FIFO or pipe never reaches the
  // read: checkpoints are regular files.
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    return Status::IoError("checkpoint: cannot open " + path + ": " +
                           ec.message());
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("checkpoint: cannot open " + path);
  }
  std::string bytes(static_cast<size_t>(size), '\0');
  if (!in.read(bytes.data(), static_cast<std::streamsize>(size))) {
    return Status::IoError("checkpoint: read error on " + path);
  }
  AnoT out;
  ANOT_RETURN_NOT_OK(Codec::DecodeAll(bytes, &out));
  // On validating builds the compiled validators also recompute every
  // derived index of the assembled detector, as serving-path tests do.
  out.CheckInvariants();
  return out;
}

Status AnoT::SaveCheckpoint(const std::string& path) const {
  return Checkpoint::Save(*this, path);
}

Result<AnoT> AnoT::LoadCheckpoint(const std::string& path) {
  return Checkpoint::Load(path);
}

}  // namespace anot
