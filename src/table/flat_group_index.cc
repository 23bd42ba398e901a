#include "table/flat_group_index.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <numeric>
#include <utility>
#include <variant>

#include "common/logging.h"
#include "table/simd/dispatch.h"

namespace recpriv::table {

namespace {

/// One row's packed NA key paired with its row id.
struct KeyRow {
  uint64_t key;
  uint32_t row;
};

/// LSD radix sort of `a` by key, one byte per pass, skipping passes whose
/// byte is constant and everything above `total_bits`. Stable, so rows stay
/// ascending within each group. Small inputs fall back to std::sort.
void RadixSortKeys(std::vector<KeyRow>& a, uint32_t total_bits) {
  const size_t n = a.size();
  if (n < 2 || total_bits == 0) return;
  if (n < 4096) {
    std::sort(a.begin(), a.end(), [](const KeyRow& x, const KeyRow& y) {
      return x.key != y.key ? x.key < y.key : x.row < y.row;
    });
    return;
  }
  std::vector<KeyRow> b(n);
  const uint32_t passes = (total_bits + 7) / 8;
  for (uint32_t p = 0; p < passes; ++p) {
    const uint32_t shift = p * 8;
    size_t count[256] = {0};
    for (const KeyRow& kr : a) ++count[(kr.key >> shift) & 0xFF];
    if (count[(a[0].key >> shift) & 0xFF] == n) continue;  // constant byte
    size_t pos[256];
    size_t acc = 0;
    for (size_t i = 0; i < 256; ++i) {
      pos[i] = acc;
      acc += count[i];
    }
    for (const KeyRow& kr : a) b[pos[(kr.key >> shift) & 0xFF]++] = kr;
    a.swap(b);
  }
}

/// The one thread-local scratch left in this file: backs the scratch-less
/// kernel overloads for cold callers (tests, analysis tools, one-shot
/// evaluation). Hot paths — the serving engine, pool generation — own an
/// AnswerScratch and thread it through explicitly, so this instance only
/// ever holds cold-path working sets and its never-shrinking capacity is
/// bounded by them.
AnswerScratch& SharedScratch() {
  static thread_local AnswerScratch scratch;
  return scratch;
}

/// Bit width of public attribute `attr`'s field in a packed NA key.
uint32_t KeyBits(const Schema& schema, size_t attr) {
  const size_t dom = schema.attribute(attr).domain.size();
  return dom <= 1 ? 0u : uint32_t(std::bit_width(uint64_t(dom - 1)));
}

/// Rows of a blocked transpose: a block's histogram rows (256 x m x 8 bytes)
/// stay in cache while each column's slice of the block is written.
constexpr size_t kTransposeBlock = 256;

/// Writes counts[g * m + sa] for g in [g0, g1) into `col`, narrowed to T
/// (the caller chose T wide enough for the column's maximum).
template <typename T>
void TransposeSlice(const uint64_t* counts, size_t m, size_t sa, size_t g0,
                    size_t g1, T* col) {
  for (size_t g = g0; g < g1; ++g) col[g] = T(counts[g * m + sa]);
}

}  // namespace

bool FlatGroupIndex::DeriveKeyLayout(bool want_packed) {
  public_idx_ = schema_->public_indices();
  m_ = schema_->sa_domain_size();
  const size_t n_pub = public_idx_.size();

  // Bit widths of the public domains; their sum decides the key layout.
  key_bits_.assign(n_pub, 0);
  uint32_t total_bits = 0;
  for (size_t k = 0; k < n_pub; ++k) {
    key_bits_[k] = KeyBits(*schema_, public_idx_[k]);
    total_bits += key_bits_[k];
  }
  packed_ = want_packed && total_bits <= 64;
  if (packed_) {
    // Attribute 0 occupies the highest bits so that numeric key order is
    // NA-lexicographic order.
    key_shifts_.assign(n_pub, 0);
    uint32_t below = total_bits;
    for (size_t k = 0; k < n_pub; ++k) {
      below -= key_bits_[k];
      key_shifts_[k] = below;
    }
  }
  return packed_ == want_packed;
}

void FlatGroupIndex::BindOwnedStorage() {
  packed_keys_ = packed_keys_own_;
  na_codes_ = na_codes_own_;
  sa_counts_ = sa_counts_own_;
  row_offsets_ = row_offsets_own_;
  row_values_ = row_values_own_;
}

FlatGroupIndex FlatGroupIndex::Build(const Table& t, KeyMode mode) {
  FlatGroupIndex idx;
  idx.schema_ = t.schema();
  idx.DeriveKeyLayout(mode == KeyMode::kAuto);
  idx.num_records_ = t.num_rows();

  const size_t n = t.num_rows();
  const size_t n_pub = idx.public_idx_.size();
  uint32_t total_bits = 0;
  for (const uint32_t b : idx.key_bits_) total_bits += b;

  // Raw column pointers: the build touches each public column once to pack
  // keys instead of gathering per comparison.
  std::vector<const uint32_t*> cols(n_pub);
  for (size_t k = 0; k < n_pub; ++k) {
    cols[k] = t.column(idx.public_idx_[k]).data();
  }
  const uint32_t* sa_col = t.column(t.schema()->sensitive_index()).data();

  idx.row_values_own_.resize(n);
  idx.row_offsets_own_.push_back(0);
  idx.na_codes_own_.reserve(n_pub * 16);

  auto open_group = [&](uint32_t first_row) {
    for (size_t k = 0; k < n_pub; ++k) {
      idx.na_codes_own_.push_back(cols[k][first_row]);
    }
    idx.sa_counts_own_.resize(idx.sa_counts_own_.size() + idx.m_, 0);
  };
  auto add_row = [&](size_t pos, uint32_t row) {
    idx.row_values_own_[pos] = row;
    const uint32_t sa = sa_col[row];
    RECPRIV_DCHECK(sa < idx.m_);
    ++idx.sa_counts_own_[idx.sa_counts_own_.size() - idx.m_ + sa];
  };

  if (idx.packed_) {
    std::vector<KeyRow> kr(n);
    for (size_t r = 0; r < n; ++r) {
      uint64_t key = 0;
      for (size_t k = 0; k < n_pub; ++k) {
        if (idx.key_bits_[k] == 0) continue;
        key |= uint64_t(cols[k][r]) << idx.key_shifts_[k];
      }
      kr[r] = KeyRow{key, uint32_t(r)};
    }
    RadixSortKeys(kr, total_bits);
    for (size_t i = 0; i < n;) {
      size_t j = i + 1;
      while (j < n && kr[j].key == kr[i].key) ++j;
      open_group(kr[i].row);
      idx.packed_keys_own_.push_back(kr[i].key);
      for (size_t r = i; r < j; ++r) add_row(r, kr[r].row);
      idx.row_offsets_own_.push_back(j);
      i = j;
    }
  } else {
    // Wide path: contiguous row-major keys, lexicographic index sort. The
    // stable sort keeps rows ascending within each group, matching the
    // radix path.
    std::vector<uint32_t> wide(n * n_pub);
    for (size_t r = 0; r < n; ++r) {
      for (size_t k = 0; k < n_pub; ++k) wide[r * n_pub + k] = cols[k][r];
    }
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    auto key_less = [&](uint32_t x, uint32_t y) {
      const uint32_t* kx = wide.data() + size_t(x) * n_pub;
      const uint32_t* ky = wide.data() + size_t(y) * n_pub;
      for (size_t k = 0; k < n_pub; ++k) {
        if (kx[k] != ky[k]) return kx[k] < ky[k];
      }
      return false;
    };
    auto key_equal = [&](uint32_t x, uint32_t y) {
      return std::equal(wide.data() + size_t(x) * n_pub,
                        wide.data() + size_t(x + 1) * n_pub,
                        wide.data() + size_t(y) * n_pub);
    };
    std::stable_sort(order.begin(), order.end(), key_less);
    for (size_t i = 0; i < n;) {
      size_t j = i + 1;
      while (j < n && key_equal(order[i], order[j])) ++j;
      open_group(order[i]);
      for (size_t r = i; r < j; ++r) add_row(r, order[r]);
      idx.row_offsets_own_.push_back(j);
      i = j;
    }
  }
  idx.num_groups_ = idx.row_offsets_own_.size() - 1;
  idx.BindOwnedStorage();
  return idx;
}

Result<FlatGroupIndex> FlatGroupIndex::FromStorage(SchemaPtr schema,
                                                   const Storage& s) {
  if (schema == nullptr) {
    return Status::DataLoss("snapshot index: null schema");
  }
  FlatGroupIndex idx;
  idx.schema_ = std::move(schema);
  if (!idx.DeriveKeyLayout(s.packed)) {
    return Status::DataLoss(
        "snapshot index: packed key layout does not fit the schema's "
        "public domains");
  }
  const size_t n_pub = idx.public_idx_.size();
  const size_t m = idx.m_;
  const uint64_t g = s.num_groups;
  const uint64_t n = s.num_records;
  idx.num_groups_ = size_t(g);
  idx.num_records_ = size_t(n);

  // Section sizes must agree with the manifest's dimensions exactly.
  if (s.na_codes.size() != g * n_pub) {
    return Status::DataLoss("snapshot index: na_codes size mismatch");
  }
  if (s.sa_counts.size() != g * m) {
    return Status::DataLoss("snapshot index: sa_counts size mismatch");
  }
  if (s.row_offsets.size() != g + 1) {
    return Status::DataLoss("snapshot index: row_offsets size mismatch");
  }
  if (s.row_values.size() != n) {
    return Status::DataLoss("snapshot index: row_values size mismatch");
  }
  if (s.packed_keys.size() != (s.packed ? g : 0)) {
    return Status::DataLoss("snapshot index: packed_keys size mismatch");
  }

  // NA codes must lie inside their attribute domains (the posting index
  // and FindGroup index by code) and group keys must be strictly
  // ascending in NA-lexicographic order (binary search depends on it).
  for (size_t k = 0; k < n_pub; ++k) {
    const uint32_t dom =
        uint32_t(idx.schema_->attribute(idx.public_idx_[k]).domain.size());
    for (uint64_t gi = 0; gi < g; ++gi) {
      if (s.na_codes[gi * n_pub + k] >= dom) {
        return Status::DataLoss("snapshot index: NA code outside its domain");
      }
    }
  }
  for (uint64_t gi = 0; gi + 1 < g; ++gi) {
    const uint32_t* a = s.na_codes.data() + gi * n_pub;
    const uint32_t* b = a + n_pub;
    if (!std::lexicographical_compare(a, a + n_pub, b, b + n_pub)) {
      return Status::DataLoss("snapshot index: group keys not ascending");
    }
  }
  if (s.packed) {
    // Packed keys must be exactly the packs of the NA-code rows; the
    // ascending check above then makes them strictly sorted too.
    for (uint64_t gi = 0; gi < g; ++gi) {
      uint64_t key = 0;
      if (!idx.PackKey({s.na_codes.data() + gi * n_pub, n_pub}, &key) ||
          key != s.packed_keys[gi]) {
        return Status::DataLoss(
            "snapshot index: packed key disagrees with NA codes");
      }
    }
  }

  // CSR offsets: zero-based, monotone, covering all records.
  if (g == 0 ? (s.row_offsets[0] != 0 || n != 0)
             : (s.row_offsets[0] != 0 || s.row_offsets[g] != n)) {
    return Status::DataLoss("snapshot index: CSR offsets do not cover rows");
  }
  for (uint64_t gi = 0; gi < g; ++gi) {
    if (s.row_offsets[gi] >= s.row_offsets[gi + 1]) {
      return Status::DataLoss("snapshot index: empty or descending group");
    }
  }

  // Row values must be a permutation of [0, n) — a duplicated or
  // out-of-range row would silently distort every count answer.
  std::vector<bool> seen(size_t(n), false);
  for (const uint32_t r : s.row_values) {
    if (r >= n || seen[r]) {
      return Status::DataLoss("snapshot index: rows are not a permutation");
    }
    seen[r] = true;
  }

  // Each histogram row must sum to its group's size.
  for (uint64_t gi = 0; gi < g; ++gi) {
    uint64_t sum = 0;
    for (size_t sa = 0; sa < m; ++sa) sum += s.sa_counts[gi * m + sa];
    if (sum != s.row_offsets[gi + 1] - s.row_offsets[gi]) {
      return Status::DataLoss(
          "snapshot index: SA histogram disagrees with group size");
    }
  }

  idx.packed_keys_ = s.packed_keys;
  idx.na_codes_ = s.na_codes;
  idx.sa_counts_ = s.sa_counts;
  idx.row_offsets_ = s.row_offsets;
  idx.row_values_ = s.row_values;
  return idx;
}

Result<FlatGroupIndex> FlatGroupIndex::MergeRuns(SchemaPtr schema,
                                                 const GroupRun& base,
                                                 const GroupRun& overlay,
                                                 KeyMode mode) {
  if (schema == nullptr) {
    return Status::InvalidArgument("MergeRuns: null schema");
  }
  FlatGroupIndex idx;
  idx.schema_ = std::move(schema);
  idx.DeriveKeyLayout(mode == KeyMode::kAuto);
  const size_t n_pub = idx.public_idx_.size();
  const size_t m = idx.m_;

  // Both runs are caller-assembled (the overlay from freshly perturbed
  // histograms, the base possibly from borrowed index sections), so their
  // invariants are re-checked before any section is trusted: consistent
  // sizes, in-domain codes, strictly ascending keys.
  for (const GroupRun* run : {&base, &overlay}) {
    if (run->na_codes.size() != run->num_groups * n_pub ||
        run->sa_counts.size() != run->num_groups * m) {
      return Status::InvalidArgument(
          "MergeRuns: run sections disagree with the group count");
    }
    for (size_t k = 0; k < n_pub; ++k) {
      const uint32_t dom =
          uint32_t(idx.schema_->attribute(idx.public_idx_[k]).domain.size());
      for (uint64_t gi = 0; gi < run->num_groups; ++gi) {
        if (run->na_codes[gi * n_pub + k] >= dom) {
          return Status::InvalidArgument(
              "MergeRuns: NA code outside its domain");
        }
      }
    }
    for (uint64_t gi = 0; gi + 1 < run->num_groups; ++gi) {
      const uint32_t* a = run->na_codes.data() + gi * n_pub;
      const uint32_t* b = a + n_pub;
      if (!std::lexicographical_compare(a, a + n_pub, b, b + n_pub)) {
        return Status::InvalidArgument(
            "MergeRuns: run keys not strictly ascending");
      }
    }
  }

  auto key_at = [n_pub](const GroupRun& run, uint64_t gi) {
    return run.na_codes.data() + gi * n_pub;
  };
  auto lex_cmp = [n_pub](const uint32_t* a, const uint32_t* b) {
    for (size_t k = 0; k < n_pub; ++k) {
      if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
    }
    return 0;
  };

  idx.row_offsets_own_.push_back(0);
  const size_t expect_groups = size_t(base.num_groups + overlay.num_groups);
  idx.na_codes_own_.reserve(expect_groups * n_pub);
  idx.sa_counts_own_.reserve(expect_groups * m);
  auto emit = [&](const GroupRun& run, uint64_t gi) {
    const uint64_t* hist = run.sa_counts.data() + gi * m;
    uint64_t size = 0;
    for (size_t sa = 0; sa < m; ++sa) size += hist[sa];
    if (size == 0) return;  // tombstone: the group vanishes from the output
    const uint32_t* key = key_at(run, gi);
    if (idx.packed_) {
      uint64_t packed = 0;
      // Cannot fail: the domain check above bounds every code by its
      // attribute's bit field.
      const bool fits = idx.PackKey({key, n_pub}, &packed);
      RECPRIV_DCHECK(fits);
      (void)fits;
      idx.packed_keys_own_.push_back(packed);
    }
    idx.na_codes_own_.insert(idx.na_codes_own_.end(), key, key + n_pub);
    idx.sa_counts_own_.insert(idx.sa_counts_own_.end(), hist, hist + m);
    idx.row_offsets_own_.push_back(idx.row_offsets_own_.back() + size);
  };

  uint64_t i = 0, j = 0;
  while (i < base.num_groups || j < overlay.num_groups) {
    int cmp;
    if (i == base.num_groups) {
      cmp = 1;
    } else if (j == overlay.num_groups) {
      cmp = -1;
    } else {
      cmp = lex_cmp(key_at(base, i), key_at(overlay, j));
    }
    if (cmp < 0) {
      emit(base, i);
      ++i;
    } else {
      emit(overlay, j);  // on a collision the overlay replaces the base group
      ++j;
      if (cmp == 0) ++i;
    }
  }

  idx.num_groups_ = idx.row_offsets_own_.size() - 1;
  idx.num_records_ = size_t(idx.row_offsets_own_.back());
  idx.row_values_own_.resize(idx.num_records_);
  std::iota(idx.row_values_own_.begin(), idx.row_values_own_.end(), 0u);
  idx.BindOwnedStorage();
  return idx;
}

double FlatGroupIndex::AverageGroupSize() const {
  if (num_groups_ == 0) return 0.0;
  return static_cast<double>(num_records_) / static_cast<double>(num_groups_);
}

double FlatGroupIndex::Frequency(size_t g, size_t sa) const {
  const uint64_t size = group_size(g);
  return size == 0 ? 0.0
                   : static_cast<double>(sa_count(g, sa)) /
                         static_cast<double>(size);
}

double FlatGroupIndex::MaxFrequency(size_t g) const {
  const uint64_t size = group_size(g);
  if (size == 0) return 0.0;
  uint64_t max_count = 0;
  for (uint64_t c : sa_counts(g)) max_count = std::max(max_count, c);
  return static_cast<double>(max_count) / static_cast<double>(size);
}

bool FlatGroupIndex::PackKey(std::span<const uint32_t> na,
                             uint64_t* key) const {
  uint64_t k = 0;
  for (size_t i = 0; i < na.size(); ++i) {
    if (key_bits_[i] == 0) {
      if (na[i] != 0) return false;  // single-value domain: only code 0
      continue;
    }
    if ((uint64_t(na[i]) >> key_bits_[i]) != 0) return false;  // overflow
    k |= uint64_t(na[i]) << key_shifts_[i];
  }
  *key = k;
  return true;
}

int FlatGroupIndex::CompareKeyAt(size_t g,
                                 std::span<const uint32_t> na) const {
  const uint32_t* gk = na_codes_.data() + g * public_idx_.size();
  for (size_t k = 0; k < na.size(); ++k) {
    if (gk[k] != na[k]) return gk[k] < na[k] ? -1 : 1;
  }
  return 0;
}

Result<size_t> FlatGroupIndex::FindGroup(
    std::span<const uint32_t> na_codes) const {
  if (na_codes.size() != public_idx_.size() || num_groups_ == 0) {
    return Status::NotFound("no personal group with the given NA key");
  }
  if (packed_) {
    uint64_t key = 0;
    if (PackKey(na_codes, &key)) {
      const auto it =
          std::lower_bound(packed_keys_.begin(), packed_keys_.end(), key);
      if (it != packed_keys_.end() && *it == key) {
        return size_t(it - packed_keys_.begin());
      }
    }
  } else {
    size_t lo = 0, hi = num_groups_;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (CompareKeyAt(mid, na_codes) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < num_groups_ && CompareKeyAt(lo, na_codes) == 0) return lo;
  }
  return Status::NotFound("no personal group with the given NA key");
}

std::vector<uint32_t> FlatGroupIndex::MatchingGroups(
    const Predicate& pred) const {
  std::vector<uint32_t> out;
  MatchingGroupsInto(pred, out);
  return out;
}

void FlatGroupIndex::MatchingGroupsInto(const Predicate& pred,
                                        std::vector<uint32_t>& out) const {
  MatchingGroupsInto(pred, SharedScratch(), out);
}

void FlatGroupIndex::MatchingGroupsInto(const Predicate& pred,
                                        AnswerScratch& scratch,
                                        std::vector<uint32_t>& out) const {
  RECPRIV_CHECK(pred.num_attributes() == schema_->num_attributes())
      << "predicate arity mismatch";
  out.clear();
  const size_t n_pub = public_idx_.size();
  CollectBound(pred, scratch);
  if (scratch.bound.size() == n_pub && n_pub > 0) {
    // Fully bound: at most one group — binary search instead of a scan.
    scratch.key.resize(n_pub);
    for (const auto& [k, code] : scratch.bound) scratch.key[k] = code;
    const Result<size_t> found = FindGroup(scratch.key);
    if (found.ok()) out.push_back(uint32_t(*found));
    return;
  }
  const uint32_t* nk = na_codes_.data();
  for (size_t g = 0; g < num_groups_; ++g) {
    const uint32_t* gk = nk + g * n_pub;
    bool match = true;
    for (const auto& [k, code] : scratch.bound) {
      if (gk[k] != code) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(uint32_t(g));
  }
}

uint64_t FlatGroupIndex::CountAnswer(const Predicate& pred,
                                     uint32_t sa) const {
  uint64_t observed = 0, matched_size = 0;
  AnswerInto(pred, sa, &observed, &matched_size);
  return observed;
}

void FlatGroupIndex::CollectBound(const Predicate& pred,
                                  AnswerScratch& scratch) const {
  scratch.bound.clear();
  const size_t n_pub = public_idx_.size();
  for (size_t k = 0; k < n_pub; ++k) {
    const size_t attr = public_idx_[k];
    if (pred.is_bound(attr)) {
      scratch.bound.emplace_back(uint32_t(k), pred.code(attr));
    }
  }
}

void FlatGroupIndex::AnswerInto(const Predicate& pred, uint32_t sa,
                                uint64_t* observed,
                                uint64_t* matched_size) const {
  AnswerInto(pred, sa, SharedScratch(), observed, matched_size);
}

void FlatGroupIndex::AnswerInto(const Predicate& pred, uint32_t sa,
                                AnswerScratch& scratch, uint64_t* observed,
                                uint64_t* matched_size) const {
  RECPRIV_CHECK(pred.num_attributes() == schema_->num_attributes())
      << "predicate arity mismatch";
  RECPRIV_DCHECK(sa < m_);
  *observed = 0;
  *matched_size = 0;
  const size_t n_pub = public_idx_.size();
  CollectBound(pred, scratch);
  if (scratch.bound.size() == n_pub && n_pub > 0) {
    scratch.key.resize(n_pub);
    for (const auto& [k, code] : scratch.bound) scratch.key[k] = code;
    const Result<size_t> found = FindGroup(scratch.key);
    if (found.ok()) {
      *observed = sa_count(*found, sa);
      *matched_size = group_size(*found);
    }
    return;
  }
  // The scan body dispatches to the best SIMD level the host supports;
  // every level is bit-identical to the scalar reference by construction
  // (integer sums only — see table/simd/dispatch.h).
  simd::FusedCountArgs fused;
  fused.na_codes = na_codes_;
  fused.sa_counts = sa_counts_;
  fused.row_offsets = row_offsets_;
  fused.num_groups = num_groups_;
  fused.n_pub = n_pub;
  fused.m = m_;
  fused.sa = sa;
  fused.bound = scratch.bound;
  if (packed_) {
    // Equivalent packed-key spelling of the same match: attribute k's
    // code sits in its own bit field, so the bound compare collapses to
    // one masked 64-bit equality per group over the contiguous sorted
    // keys (the layout Build sorted by).
    uint64_t mask = 0, want = 0;
    bool fits = true;
    for (const auto& [k, code] : scratch.bound) {
      const uint32_t bits = key_bits_[k];
      const uint64_t field =
          bits >= 64 ? ~uint64_t(0) : (uint64_t(1) << bits) - 1;
      if (uint64_t(code) > field) {
        // The code overflows its field, so no group's key can carry it:
        // the zero-initialized outputs are already the answer.
        fits = false;
        break;
      }
      mask |= field << key_shifts_[k];
      want |= uint64_t(code) << key_shifts_[k];
    }
    if (!fits) return;
    fused.packed_keys = packed_keys_;
    fused.packed_mask = mask;
    fused.packed_want = want;
  }
  simd::FusedCountSums(fused, observed, matched_size);
}

std::vector<uint32_t> SeededRowOrder(const Table& t) {
  const size_t n = t.num_rows();
  const std::vector<size_t> pub = t.schema()->public_indices();
  const size_t n_pub = pub.size();
  // Row-major keys, gathered once: the comparator below returns exactly
  // what comparing the rows' public codes attribute by attribute returns,
  // so std::sort makes the same moves and yields the permutation seeded
  // releases are drawn in.
  std::vector<uint32_t> keys(n * n_pub);
  for (size_t k = 0; k < n_pub; ++k) {
    const std::vector<uint32_t>& col = t.column(pub[k]);
    for (size_t r = 0; r < n; ++r) keys[r * n_pub + k] = col[r];
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const uint32_t* ka = keys.data() + size_t(a) * n_pub;
    const uint32_t* kb = keys.data() + size_t(b) * n_pub;
    for (size_t k = 0; k < n_pub; ++k) {
      if (ka[k] != kb[k]) return ka[k] < kb[k];
    }
    return false;
  });
  return order;
}

GroupPostingIndex::GroupPostingIndex(const FlatGroupIndex& index)
    : index_(&index) {
  const auto& pub = index.public_indices();
  postings_.resize(pub.size());
  for (size_t k = 0; k < pub.size(); ++k) {
    postings_[k].resize(index.schema()->attribute(pub[k]).domain.size());
  }
  for (size_t gi = 0; gi < index.num_groups(); ++gi) {
    for (size_t k = 0; k < pub.size(); ++k) {
      postings_[k][index.na_code(gi, k)].push_back(uint32_t(gi));
    }
  }
}

std::vector<uint32_t> GroupPostingIndex::MatchingGroups(
    const Predicate& pred) const {
  std::vector<uint32_t> scratch;
  std::vector<uint32_t> out;
  MatchingGroupsInto(pred, scratch, out);
  return out;
}

bool GroupPostingIndex::CollectLists(
    const Predicate& pred,
    std::vector<const std::vector<uint32_t>*>& lists) const {
  lists.clear();
  const auto& pub = index_->public_indices();
  for (size_t k = 0; k < pub.size(); ++k) {
    if (pred.is_bound(pub[k])) {
      const uint32_t code = pred.code(pub[k]);
      if (code >= postings_[k].size()) return false;
      lists.push_back(&postings_[k][code]);
    }
  }
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  return true;
}

void GroupPostingIndex::IntersectInto(
    const std::vector<const std::vector<uint32_t>*>& lists,
    std::vector<uint32_t>& scratch, std::vector<uint32_t>& out) {
  out.assign(lists[0]->begin(), lists[0]->end());
  for (size_t li = 1; li < lists.size() && !out.empty(); ++li) {
    scratch.clear();
    std::set_intersection(out.begin(), out.end(), lists[li]->begin(),
                          lists[li]->end(), std::back_inserter(scratch));
    std::swap(out, scratch);
  }
}

void GroupPostingIndex::MatchingGroupsInto(const Predicate& pred,
                                           std::vector<uint32_t>& scratch,
                                           std::vector<uint32_t>& out) const {
  out.clear();
  std::vector<const std::vector<uint32_t>*>& lists = SharedScratch().lists;
  if (!CollectLists(pred, lists)) return;
  if (lists.empty()) {
    out.resize(index_->num_groups());
    std::iota(out.begin(), out.end(), 0u);
    return;
  }
  IntersectInto(lists, scratch, out);
}

void GroupPostingIndex::BuildColumns() const {
  const size_t groups = index_->num_groups();
  const size_t m = index_->sa_domain();
  const uint64_t* counts = index_->storage().sa_counts.data();

  std::vector<uint64_t> max(m, 0);
  for (size_t g = 0; g < groups; ++g) {
    for (size_t sa = 0; sa < m; ++sa) {
      max[sa] = std::max(max[sa], counts[g * m + sa]);
    }
  }
  columns_.resize(m);
  for (size_t sa = 0; sa < m; ++sa) {
    // A count is at most a group's size, and groups hold uint32_t row ids.
    RECPRIV_CHECK(max[sa] <= UINT32_MAX) << "SA count exceeds 32 bits";
    if (max[sa] <= UINT8_MAX) {
      columns_[sa].emplace<std::vector<uint8_t>>(groups);
    } else if (max[sa] <= UINT16_MAX) {
      columns_[sa].emplace<std::vector<uint16_t>>(groups);
    } else {
      columns_[sa].emplace<std::vector<uint32_t>>(groups);
    }
  }

  for (size_t g0 = 0; g0 < groups; g0 += kTransposeBlock) {
    const size_t g1 = std::min(groups, g0 + kTransposeBlock);
    for (size_t sa = 0; sa < m; ++sa) {
      std::visit(
          [&](auto& col) { TransposeSlice(counts, m, sa, g0, g1, col.data()); },
          columns_[sa]);
    }
  }
}

void GroupPostingIndex::AnswerInto(const Predicate& pred, uint32_t sa,
                                   AnswerScratch& scratch, uint64_t* observed,
                                   uint64_t* matched_size) const {
  RECPRIV_CHECK(pred.num_attributes() == index_->schema()->num_attributes())
      << "predicate arity mismatch";
  RECPRIV_DCHECK(sa < index_->sa_domain());
  std::call_once(columns_once_, [this] { BuildColumns(); });
  *observed = 0;
  *matched_size = 0;
  if (!CollectLists(pred, scratch.lists)) return;
  if (scratch.lists.empty()) {
    *observed = std::visit(
        [](const auto& col) {
          uint64_t sum = 0;
          for (const auto count : col) sum += count;
          return sum;
        },
        columns_[sa]);
    *matched_size = index_->num_records();
    return;
  }
  // One bound attribute (most served queries) sums its posting list in
  // place; more intersect first.
  std::span<const uint32_t> matched = *scratch.lists[0];
  if (scratch.lists.size() > 1) {
    IntersectInto(scratch.lists, scratch.intersect, scratch.groups);
    matched = scratch.groups;
  }
  const uint64_t* offsets = index_->storage().row_offsets.data();
  std::visit(
      [&](const auto& col) {
        uint64_t obs = 0, size = 0;
        for (const uint32_t g : matched) {
          obs += col[g];
          size += offsets[g + 1] - offsets[g];
        }
        *observed = obs;
        *matched_size = size;
      },
      columns_[sa]);
}

uint64_t GroupPostingIndex::CountAnswer(const Predicate& pred,
                                        uint32_t sa) const {
  return CountAnswer(pred, sa, SharedScratch());
}

uint64_t GroupPostingIndex::CountAnswer(const Predicate& pred, uint32_t sa,
                                        AnswerScratch& scratch) const {
  uint64_t observed = 0, matched_size = 0;
  AnswerInto(pred, sa, scratch, &observed, &matched_size);
  return observed;
}

}  // namespace recpriv::table
