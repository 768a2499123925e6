#include "core/sub_index.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace hypersub::core {

namespace {

/// Bitset words needed to hold `slots` slots.
constexpr std::size_t words_for(std::size_t slots) noexcept {
  return (slots + 63) / 64;
}

}  // namespace

std::size_t SubIndex::cell_of(const Dim& d, double x) {
  return std::size_t(
      std::upper_bound(d.bounds.begin(), d.bounds.end(), x) -
      d.bounds.begin());
}

void SubIndex::assign(std::vector<HyperRect> ranges) {
  rects_ = std::move(ranges);
  free_.clear();
  live_ = rects_.size();
  dims_.clear();
  if (!rects_.empty()) dims_.resize(rects_.front().dimensions());
  assert(std::all_of(rects_.begin(), rects_.end(), [&](const HyperRect& r) {
    return !r.empty() && r.dimensions() == dims_.size();
  }));
  rebuild();
}

std::uint32_t SubIndex::insert(HyperRect range) {
  assert(!range.empty());
  if (dims_.empty()) dims_.resize(range.dimensions());
  assert(range.dimensions() == dims_.size());

  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    rects_[slot] = std::move(range);
  } else {
    slot = std::uint32_t(rects_.size());
    rects_.push_back(std::move(range));
  }
  ++live_;
  if (live_ > cfg_.rebuild_factor * built_size_) {
    rebuild();  // re-derive boundaries from the grown endpoint population
  } else {
    if (slot / 64 >= stride_) grow_stride(slot / 64 + 1);
    set_bits(rects_[slot], slot);
  }
  return slot;
}

void SubIndex::remove(std::uint32_t slot) {
  assert(slot < rects_.size() && !rects_[slot].empty());
  clear_bits(rects_[slot], slot);
  rects_[slot] = HyperRect{};
  free_.push_back(slot);
  --live_;
  if (live_ * cfg_.rebuild_factor < built_size_) rebuild();
}

void SubIndex::set_bits(const HyperRect& r, std::uint32_t slot) {
  const std::uint64_t m = std::uint64_t{1} << (slot % 64);
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    Dim& dim = dims_[d];
    const std::size_t c1 = cell_of(dim, r.dim(d).hi);
    std::uint64_t* word = dim.words.data() + slot / 64;
    for (std::size_t c = cell_of(dim, r.dim(d).lo); c <= c1; ++c) {
      word[c * stride_] |= m;
    }
  }
}

void SubIndex::clear_bits(const HyperRect& r, std::uint32_t slot) {
  const std::uint64_t m = std::uint64_t{1} << (slot % 64);
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    Dim& dim = dims_[d];
    const std::size_t c1 = cell_of(dim, r.dim(d).hi);
    std::uint64_t* word = dim.words.data() + slot / 64;
    for (std::size_t c = cell_of(dim, r.dim(d).lo); c <= c1; ++c) {
      word[c * stride_] &= ~m;
    }
  }
}

void SubIndex::grow_stride(std::size_t min_words) {
  const std::size_t stride = std::max(2 * stride_, min_words);
  for (Dim& dim : dims_) {
    const std::size_t cells = dim.bounds.size() + 1;
    std::vector<std::uint64_t> words(cells * stride, 0);
    for (std::size_t c = 0; c < cells; ++c) {
      std::copy_n(dim.words.begin() + std::ptrdiff_t(c * stride_), stride_,
                  words.begin() + std::ptrdiff_t(c * stride));
    }
    dim.words = std::move(words);
  }
  stride_ = stride;
}

void SubIndex::rebuild() {
  stride_ = words_for(rects_.size());
  std::vector<double> endpoints;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    Dim& dim = dims_[d];
    endpoints.clear();
    endpoints.reserve(2 * live_);
    for (const auto& r : rects_) {
      if (r.empty()) continue;
      endpoints.push_back(r.dim(d).lo);
      endpoints.push_back(r.dim(d).hi);
    }
    std::sort(endpoints.begin(), endpoints.end());
    // Equi-depth boundaries over the endpoint list; duplicates collapse, so
    // a degenerate (single-valued) dimension ends up with <= 2 cells.
    dim.bounds.clear();
    const std::size_t c = cfg_.cells_per_dim;
    for (std::size_t k = 1; k < c && !endpoints.empty(); ++k) {
      const double b = endpoints[k * endpoints.size() / c];
      if (dim.bounds.empty() || dim.bounds.back() < b) dim.bounds.push_back(b);
    }
    dim.words.assign((dim.bounds.size() + 1) * stride_, 0);
  }
  for (std::uint32_t s = 0; s < rects_.size(); ++s) {
    if (!rects_[s].empty()) set_bits(rects_[s], s);
  }
  built_size_ = live_;
}

void SubIndex::candidates(const Point& p,
                          std::vector<std::uint32_t>& out) const {
  if (live_ == 0) return;
  assert(p.size() == dims_.size());
  // Only the words that can hold a slot; the stride may run past them.
  const std::size_t len = words_for(rects_.size());
  {
    const Dim& dim = dims_[0];
    const auto row =
        dim.words.begin() + std::ptrdiff_t(cell_of(dim, p[0]) * stride_);
    scratch_.assign(row, row + std::ptrdiff_t(len));
  }
  for (std::size_t d = 1; d < dims_.size(); ++d) {
    const Dim& dim = dims_[d];
    const std::uint64_t* row = dim.words.data() + cell_of(dim, p[d]) * stride_;
    for (std::size_t w = 0; w < len; ++w) scratch_[w] &= row[w];
  }
  for (std::size_t w = 0; w < len; ++w) {
    std::uint64_t bits = scratch_[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      out.push_back(std::uint32_t(w * 64 + std::size_t(b)));
    }
  }
}

}  // namespace hypersub::core
