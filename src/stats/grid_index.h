#ifndef SURF_STATS_GRID_INDEX_H_
#define SURF_STATS_GRID_INDEX_H_

#include <vector>

#include "geom/bounds.h"
#include "stats/evaluator.h"

namespace surf {

/// \brief Uniform-grid range evaluator.
///
/// Partitions the domain into `cells_per_dim^d` equal cells and copies the
/// region columns (and the value column) into cell order with a stable
/// counting sort, so each cell is one contiguous slice of every column,
/// its rows in dataset order. Cells fully covered by the query box
/// contribute pre-aggregated block statistics (count, sum, sum of squares,
/// label matches) in O(1); every other intersecting cell runs the accel
/// mask kernels over its slice, on only the dimensions where the cell
/// touches a face of the box. The median scans every intersecting cell so
/// each raw value reaches the accumulator's quantile sketch; rows arrive
/// in cell order, not dataset order, so once a region holds more than the
/// sketch's capacity its median can differ from the scan's within the
/// sketch's rank bound (see RegionEvaluator). Labels are bit-identical on
/// every accel backend: cells are visited in odometer order and rows
/// within a cell in dataset order, whatever the kernel width.
///
/// The index owns its copy of the data (d × N doubles, plus N for value
/// kinds) and is immutable after construction, so one instance can label
/// from any number of threads at once.
///
/// This is one of the data-system substrates the true function f is served
/// from; it turns the O(N) per-query cost of ScanEvaluator into roughly
/// O(points near the boundary) for selective queries.
class GridIndexEvaluator : public RegionEvaluator {
 public:
  /// Builds the index over `data`; `cells_per_dim` clamps to [1, 64].
  /// `data` is only read during construction.
  GridIndexEvaluator(const Dataset* data, Statistic stat,
                     size_t cells_per_dim = 16);

  const Statistic& statistic() const override { return stat_; }

  size_t cells_per_dim() const { return cells_per_dim_; }
  size_t num_cells() const { return cell_start_.size() - 1; }

 protected:
  double EvaluateImpl(const Region& region,
                      const CancelToken& cancel) const override;

 private:
  /// Pre-aggregated value-column statistics of one cell (value kinds
  /// only; the row count comes from `cell_start_`).
  struct CellBlock {
    double sum = 0.0;
    double sum_sq = 0.0;
    size_t matches = 0;
  };

  size_t CoordOf(double v, size_t dim) const;

  /// Adds the rows of slice [begin, end) that pass the box on every
  /// dimension listed in `dims` (the others are known to pass).
  void ScanSlice(size_t begin, size_t end, const Region& region,
                 const size_t* dims, size_t num_dims,
                 StatisticAccumulator* acc) const;

  Statistic stat_;
  Bounds bounds_;
  size_t cells_per_dim_;
  size_t num_rows_;
  /// Region columns in cell order, dimension-major: dimension j of
  /// sorted row i is `columns_[j * num_rows_ + i]`.
  std::vector<double> columns_;
  /// Value column in cell order (empty for kCount).
  std::vector<double> values_;
  /// Cell c owns sorted rows [cell_start_[c], cell_start_[c + 1]).
  std::vector<size_t> cell_start_;
  /// Per-cell value aggregates (empty for kCount).
  std::vector<CellBlock> blocks_;
};

}  // namespace surf

#endif  // SURF_STATS_GRID_INDEX_H_
