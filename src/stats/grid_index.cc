#include "stats/grid_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "accel/accel.h"

namespace surf {

GridIndexEvaluator::GridIndexEvaluator(const Dataset* data, Statistic stat,
                                       size_t cells_per_dim)
    : stat_(std::move(stat)) {
  assert(data != nullptr);
  assert(data->num_rows() > 0);
  assert(data->num_rows() <= std::numeric_limits<uint32_t>::max());
  num_rows_ = data->num_rows();
  cells_per_dim_ = std::clamp<size_t>(cells_per_dim, 1, 64);

  // Guard against combinatorial cell explosion in high dimensions: cap the
  // total cell count at ~2^20 by shrinking the per-dimension resolution.
  const size_t d = stat_.dims();
  while (cells_per_dim_ > 1 &&
         std::pow(static_cast<double>(cells_per_dim_),
                  static_cast<double>(d)) > double(1 << 20)) {
    cells_per_dim_ /= 2;
  }

  bounds_ = data->ComputeBounds(stat_.region_cols);

  size_t total = 1;
  for (size_t i = 0; i < d; ++i) total *= cells_per_dim_;

  // Stable counting sort by cell: count the rows of every cell, turn the
  // counts into slice starts, then hand each row (in dataset order) the
  // next slot of its cell. `slot[r]` holds row r's cell, then its sorted
  // position.
  const size_t n = num_rows_;
  std::vector<uint32_t> slot(n, 0);
  for (size_t j = 0; j < d; ++j) {
    const std::vector<double>& col = data->column(stat_.region_cols[j]);
    for (size_t r = 0; r < n; ++r) {
      slot[r] = static_cast<uint32_t>(slot[r] * cells_per_dim_ +
                                      CoordOf(col[r], j));
    }
  }
  cell_start_.assign(total + 1, 0);
  for (size_t r = 0; r < n; ++r) ++cell_start_[slot[r] + 1];
  for (size_t c = 0; c < total; ++c) cell_start_[c + 1] += cell_start_[c];
  std::vector<size_t> next(cell_start_.begin(), cell_start_.end() - 1);
  for (size_t r = 0; r < n; ++r) {
    slot[r] = static_cast<uint32_t>(next[slot[r]]++);
  }

  columns_.resize(d * n);
  for (size_t j = 0; j < d; ++j) {
    const std::vector<double>& col = data->column(stat_.region_cols[j]);
    double* out = columns_.data() + j * n;
    for (size_t r = 0; r < n; ++r) out[slot[r]] = col[r];
  }
  if (!stat_.needs_value_column()) return;

  const std::vector<double>& col =
      data->column(static_cast<size_t>(stat_.value_col));
  values_.resize(n);
  for (size_t r = 0; r < n; ++r) values_[slot[r]] = col[r];
  blocks_.resize(total);
  for (size_t c = 0; c < total; ++c) {
    CellBlock& block = blocks_[c];
    for (size_t i = cell_start_[c]; i < cell_start_[c + 1]; ++i) {
      const double v = values_[i];
      block.sum += v;
      block.sum_sq += v * v;
      if (stat_.kind == StatisticKind::kLabelRatio &&
          v == stat_.label_value) {
        block.matches += 1;
      }
    }
  }
}

size_t GridIndexEvaluator::CoordOf(double v, size_t dim) const {
  const double extent = bounds_.Extent(dim);
  if (extent <= 0.0) return 0;
  double t = (v - bounds_.lo(dim)) / extent;
  t = std::clamp(t, 0.0, 1.0);
  size_t c = static_cast<size_t>(t * static_cast<double>(cells_per_dim_));
  return std::min(c, cells_per_dim_ - 1);
}

void GridIndexEvaluator::ScanSlice(size_t begin, size_t end,
                                   const Region& region, const size_t* dims,
                                   size_t num_dims,
                                   StatisticAccumulator* acc) const {
  // The kernels' inclusion test is `!(v < lo) & !(v > hi)`, the same
  // test the reference scan applies per row; being integer-valued it is
  // bit-identical on every backend.
  const AccelOps& ops = Accel();
  constexpr size_t kChunk = 256;
  uint8_t mask[kChunk];
  for (size_t b = begin; b < end; b += kChunk) {
    const size_t len = std::min(kChunk, end - b);
    std::memset(mask, 1, len);
    for (size_t k = 0; k < num_dims; ++k) {
      const size_t j = dims[k];
      ops.mask_range_and(columns_.data() + j * num_rows_ + b, len,
                         region.lo(j), region.hi(j), mask);
    }
    if (values_.empty()) {
      acc->AddBlock(ops.mask_count(mask, len), 0.0, 0.0, 0);
      continue;
    }
    const double* values = values_.data() + b;
    for (size_t i = 0; i < len; ++i) {
      if (mask[i]) acc->Add(values[i]);
    }
  }
}

double GridIndexEvaluator::EvaluateImpl(const Region& region,
                                        const CancelToken& /*cancel*/) const {
  const size_t d = stat_.dims();
  assert(region.dims() == d);

  // Cell coordinate range intersecting the query on each dimension.
  StatisticAccumulator acc(stat_);
  std::vector<size_t> lo_c(d), hi_c(d);
  for (size_t j = 0; j < d; ++j) {
    if (region.hi(j) < bounds_.lo(j) || region.lo(j) > bounds_.hi(j)) {
      // Disjoint from the data's bounding box: empty result.
      return acc.Finalize();
    }
    lo_c[j] = CoordOf(region.lo(j), j);
    hi_c[j] = CoordOf(region.hi(j), j);
  }

  // The median cannot use pre-aggregated cell blocks; every intersecting
  // cell is scanned so the quantile sketch sees each raw value.
  const bool block_mergeable = stat_.kind != StatisticKind::kMedian;

  auto cell_fully_covered = [&](const std::vector<size_t>& coords) {
    for (size_t j = 0; j < d; ++j) {
      const double w = bounds_.Extent(j) / static_cast<double>(cells_per_dim_);
      const double cell_lo =
          bounds_.lo(j) + w * static_cast<double>(coords[j]);
      const double cell_hi = cell_lo + w;
      if (cell_lo < region.lo(j) || cell_hi > region.hi(j)) return false;
    }
    return true;
  };

  // Odometer over the intersecting cell ranges.
  std::vector<size_t> coords = lo_c;
  std::vector<size_t> test_dims(d);
  for (;;) {
    size_t cell = 0;
    for (size_t j = 0; j < d; ++j) cell = cell * cells_per_dim_ + coords[j];
    const size_t begin = cell_start_[cell];
    const size_t end = cell_start_[cell + 1];
    if (begin != end) {
      if (block_mergeable && cell_fully_covered(coords)) {
        if (blocks_.empty()) {
          acc.AddBlock(end - begin, 0.0, 0.0, 0);
        } else {
          const CellBlock& block = blocks_[cell];
          acc.AddBlock(end - begin, block.sum, block.sum_sq, block.matches);
        }
      } else {
        // CoordOf is monotone, so a row whose coordinate lies strictly
        // between lo_c[j] and hi_c[j] is inside the box on dimension j:
        // only the dimensions where this cell sits on lo_c or hi_c need
        // the mask pass.
        size_t num_dims = 0;
        for (size_t j = 0; j < d; ++j) {
          if (coords[j] == lo_c[j] || coords[j] == hi_c[j]) {
            test_dims[num_dims++] = j;
          }
        }
        ScanSlice(begin, end, region, test_dims.data(), num_dims, &acc);
      }
    }
    // Advance odometer.
    size_t j = d;
    while (j > 0) {
      --j;
      if (coords[j] < hi_c[j]) {
        ++coords[j];
        for (size_t k = j + 1; k < d; ++k) coords[k] = lo_c[k];
        break;
      }
      if (j == 0) return acc.Finalize();
    }
    if (d == 0) break;
  }
  return acc.Finalize();
}

}  // namespace surf
