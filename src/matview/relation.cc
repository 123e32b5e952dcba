#include "matview/relation.h"

#include <algorithm>

#include "common/logging.h"

namespace gstream {

Relation::Relation(uint32_t arity) : arity_(arity) {
  GS_CHECK_MSG(arity > 0, "relation arity must be positive");
}

Relation::Relation(Relation&& other) noexcept
    : arity_(other.arity_),
      prov_enabled_(other.prov_enabled_),
      num_rows_(other.num_rows_),
      generation_(other.generation_),
      erasures_(other.erasures_),
      data_(std::move(other.data_)),
      prov_(std::move(other.prov_)),
      row_set_(std::move(other.row_set_)) {
  // The dedup set stores hashes + row indexes only (nothing address-bound),
  // so it moves wholesale with the data buffer.
  other.num_rows_ = 0;
  other.row_set_ = FlatRowSet();
}

void Relation::EnableProvenance() {
  GS_CHECK_MSG(num_rows_ == 0, "enable provenance before the first append");
  prov_enabled_ = true;
}

bool Relation::Append(const VertexId* row) {
  const uint64_t hash = HashIds(row, arity_);
  const bool inserted = row_set_.Insert(
      hash, static_cast<uint32_t>(num_rows_),
      [&](uint32_t existing) { return RowEquals(Row(existing), row); },
      [&](uint32_t existing) { return HashIds(Row(existing), arity_); });
  if (!inserted) return false;
  if (row >= data_.data() && row < data_.data() + data_.size()) {
    // Self-append: vector::insert from the vector's own range is UB (and
    // would dangle outright across a growth realloc); stage a copy.
    RowScratch copy(arity_);
    std::copy(row, row + arity_, copy.data());
    data_.insert(data_.end(), copy.data(), copy.data() + arity_);
  } else {
    data_.insert(data_.end(), row, row + arity_);
  }
  if (prov_enabled_) prov_.push_back(0);
  ++num_rows_;
  return true;
}

bool Relation::AppendTagged(const VertexId* row, uint32_t prov) {
  GS_DCHECK(prov_enabled_);
  if (!Append(row)) return false;
  prov_.back() = prov;
  return true;
}

bool Relation::Append(const std::vector<VertexId>& row) {
  GS_DCHECK(row.size() == arity_);
  return Append(row.data());
}

void Relation::Reserve(size_t rows) {
  data_.reserve(rows * arity_);
  row_set_.Reserve(rows,
                   [&](uint32_t existing) { return HashIds(Row(existing), arity_); });
}

size_t Relation::AppendAll(const Relation& other) {
  GS_DCHECK(other.arity_ == arity_);
  Reserve(num_rows_ + other.num_rows_);
  size_t inserted = 0;
  if (prov_enabled_) {
    // Tags travel with the rows (0 when the source carries none).
    for (size_t i = 0; i < other.num_rows_; ++i)
      if (AppendTagged(other.Row(i), other.ProvOf(i))) ++inserted;
  } else {
    for (size_t i = 0; i < other.num_rows_; ++i)
      if (Append(other.Row(i))) ++inserted;
  }
  return inserted;
}

size_t Relation::Find(const VertexId* row) const {
  const uint32_t idx = row_set_.Find(
      HashIds(row, arity_),
      [&](uint32_t existing) { return RowEquals(Row(existing), row); });
  return idx == FlatRowSet::kNotFound ? kNoRow : idx;
}

void Relation::Erase(size_t i) {
  GS_DCHECK(i < num_rows_);
  const size_t last = num_rows_ - 1;
  row_set_.Erase(HashIds(Row(i), arity_), static_cast<uint32_t>(i));
  if (i != last) {
    const VertexId* moved = Row(last);
    row_set_.Repoint(HashIds(moved, arity_), static_cast<uint32_t>(last),
                     static_cast<uint32_t>(i));
    std::copy(moved, moved + arity_, data_.begin() + i * arity_);
    if (prov_enabled_) prov_[i] = prov_[last];
  }
  data_.resize(last * arity_);
  if (prov_enabled_) prov_.pop_back();
  num_rows_ = last;
  ++erasures_;
}

void Relation::Clear() {
  if (num_rows_ == 0) return;
  data_.clear();
  prov_.clear();
  num_rows_ = 0;
  row_set_.Clear();
  ++generation_;
}

size_t Relation::MemoryBytes() const {
  return sizeof(*this) + data_.capacity() * sizeof(VertexId) +
         prov_.capacity() * sizeof(uint32_t) + row_set_.MemoryBytes();
}

}  // namespace gstream
