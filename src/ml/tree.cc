#include "ml/tree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstring>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>

namespace surf {

namespace {

/// XGBoost structure score: -1/2 * G² / (H + λ) per node; gain is the
/// score reduction of a split. Leaf weight is -G / (H + λ).
inline double NodeScore(double g, double h, double lambda) {
  return (g * g) / (h + lambda);
}

/// Nodes with fewer rows than this build their histograms serially — per
/// task the accumulation must outweigh the submit/wake cost, so only
/// large (shallow) nodes fan out per feature.
constexpr size_t kMinParallelHistRows = 1u << 14;

constexpr size_t kMaxSerializedNodes = 1u << 26;
constexpr size_t kMaxSerializedFeature = 1u << 20;

}  // namespace

/// Shared training context: the binned matrix, gradient arrays, selected
/// features, and a small pool of reusable flat histograms. Histograms are
/// addressed by id so ownership can hop between parent and children along
/// the sibling-subtraction chain without allocation churn.
struct RegressionTree::TrainState {
  const BinnedMatrix* binned = nullptr;
  const FeatureBinner* binner = nullptr;
  const double* grad = nullptr;
  const double* hess = nullptr;  // null => unit hessians
  uint32_t* rows = nullptr;
  const TreeParams* params = nullptr;
  std::vector<uint32_t> features;  // selected, ascending
  ThreadPool* pool = nullptr;
  uint32_t total_bins = 0;
  bool unit_hess = false;

  struct Histogram {
    std::vector<double> g;
    std::vector<double> h;  // unused when unit_hess
    std::vector<uint32_t> cnt;
    /// Occupied-bin bitmask (bit i ↔ flat bin i, 64-bin words). Drives
    /// the split scan (only occupied bins are visited, with no
    /// mispredicting cnt==0 branch) and clear-on-release (only dirty
    /// 64-bin slabs are zeroed).
    std::vector<uint64_t> mask;
    bool in_use = false;
  };
  std::vector<Histogram> hists;

  /// Unit-hessian fast path: hessian sums are row counts, so every
  /// 1/(H + λ) the split scan needs comes from this table instead of a
  /// hardware divide (two per candidate bin otherwise).
  std::vector<double> recip;

  /// Gradients/hessians carried alongside the row array and partitioned
  /// with it, so histogram builds read them sequentially — the random
  /// grad[row] gather happens once per tree (at setup), not once per
  /// node.
  std::vector<double> row_grad;
  std::vector<double> row_hess;

  /// Scratch for the branchless stable partition (row ids + carried
  /// gradients/hessians).
  std::vector<uint32_t> partition_scratch;
  std::vector<double> partition_scratch_g;
  std::vector<double> partition_scratch_h;

  /// True when the caller's row array is the identity permutation: the
  /// root histogram then streams bins and gradients sequentially with no
  /// row indirection at all.
  bool identity_root = false;
  size_t root_rows = 0;

  uint32_t padded_bins() const { return (total_bins + 63) & ~63u; }
  uint32_t mask_words() const { return padded_bins() / 64; }

  int AcquireHist() {
    // Buffers are kept clean on release, so acquisition is free.
    for (size_t i = 0; i < hists.size(); ++i) {
      if (!hists[i].in_use) {
        hists[i].in_use = true;
        return static_cast<int>(i);
      }
    }
    hists.emplace_back();
    Histogram& hist = hists.back();
    hist.in_use = true;
    hist.g.assign(padded_bins(), 0.0);
    hist.cnt.assign(padded_bins(), 0);
    hist.mask.assign(mask_words(), 0);
    if (!unit_hess) hist.h.assign(padded_bins(), 0.0);
    return static_cast<int>(hists.size() - 1);
  }

  /// Rebuilds the occupied mask from the counts: one branch-free pass
  /// (4 counts per compare+movemask on x86).
  void RebuildMask(Histogram* hist) {
    const uint32_t* cnt = hist->cnt.data();
    for (uint32_t w = 0; w < mask_words(); ++w) {
      uint64_t m = 0;
#if defined(__SSE2__)
      const __m128i zero = _mm_setzero_si128();
      for (uint32_t j = 0; j < 64; j += 4) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(cnt + w * 64 + j));
        const int is_zero = _mm_movemask_ps(
            _mm_castsi128_ps(_mm_cmpeq_epi32(v, zero)));
        m |= static_cast<uint64_t>(~is_zero & 0xF) << j;
      }
#else
      for (uint32_t j = 0; j < 64; ++j) {
        m |= static_cast<uint64_t>(cnt[w * 64 + j] != 0) << j;
      }
#endif
      hist->mask[w] = m;
    }
  }

  /// Zeroes only the 64-bin slabs the mask marks dirty, then returns the
  /// buffer to the pool clean.
  void ReleaseHist(int id) {
    Histogram& hist = hists[static_cast<size_t>(id)];
    for (uint32_t w = 0; w < mask_words(); ++w) {
      if (hist.mask[w] == 0) continue;
      std::fill_n(hist.g.data() + w * 64, 64, 0.0);
      std::fill_n(hist.cnt.data() + w * 64, 64, 0u);
      if (!unit_hess) std::fill_n(hist.h.data() + w * 64, 64, 0.0);
      hist.mask[w] = 0;
    }
    hist.in_use = false;
  }

  /// Accumulates the histogram for rows [begin, end). Each feature is
  /// filled by exactly one task in row order, so the result is
  /// bit-identical regardless of thread count.
  void BuildHistogram(int id, size_t begin, size_t end) {
    Histogram& hist = hists[static_cast<size_t>(id)];
    const size_t n = end - begin;
    // Root fast path: the identity row array needs no indirection — bins
    // stream sequentially.
    const bool sequential = identity_root && begin == 0 && end == root_rows;
    const double* gsrc = row_grad.data() + begin;
    const double* hsrc = unit_hess ? nullptr : row_hess.data() + begin;
    const uint32_t* row_ids = rows + begin;

    auto build_feature = [&](size_t fi) {
      const uint32_t f = features[fi];
      const uint32_t nb = binned->num_bins(f);
      if (nb < 2) return;
      const uint32_t base = binned->bin_offset(f);
      double* g = hist.g.data() + base;
      uint32_t* cnt = hist.cnt.data() + base;
      auto accumulate = [&](const auto* col) {
        if (unit_hess) {
          for (size_t i = 0; i < n; ++i) {
            const uint16_t b = sequential ? col[i] : col[row_ids[i]];
            g[b] += gsrc[i];
            ++cnt[b];
          }
        } else {
          double* h = hist.h.data() + base;
          for (size_t i = 0; i < n; ++i) {
            const uint16_t b = sequential ? col[i] : col[row_ids[i]];
            g[b] += gsrc[i];
            h[b] += hsrc[i];
            ++cnt[b];
          }
        }
      };
      // Byte-wide bins halve the gather footprint when available.
      if (binned->has_packed8()) {
        accumulate(binned->col8(f));
      } else {
        accumulate(binned->col(f));
      }
    };

    // Serial unit-hessian builds process feature pairs per row pass so
    // the row-id load amortizes over two histograms (the parallel path
    // keeps one feature per task — same per-feature accumulation order,
    // bit-identical result).
    auto build_feature_pair = [&](size_t fa, size_t fb) {
      const uint32_t f0 = features[fa];
      const uint32_t f1 = features[fb];
      if (binned->num_bins(f0) < 2 || binned->num_bins(f1) < 2 ||
          !binned->has_packed8() || !unit_hess) {
        build_feature(fa);
        build_feature(fb);
        return;
      }
      const uint8_t* c0 = binned->col8(f0);
      const uint8_t* c1 = binned->col8(f1);
      double* g0 = hist.g.data() + binned->bin_offset(f0);
      double* g1 = hist.g.data() + binned->bin_offset(f1);
      uint32_t* n0 = hist.cnt.data() + binned->bin_offset(f0);
      uint32_t* n1 = hist.cnt.data() + binned->bin_offset(f1);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = sequential ? static_cast<uint32_t>(i) : row_ids[i];
        const double gi = gsrc[i];
        const uint16_t b0 = c0[r];
        const uint16_t b1 = c1[r];
        g0[b0] += gi;
        ++n0[b0];
        g1[b1] += gi;
        ++n1[b1];
      }
    };

    if (pool != nullptr && features.size() > 1 &&
        n >= kMinParallelHistRows) {
      ParallelFor(pool, features.size(), build_feature);
    } else {
      size_t fi = 0;
      for (; fi + 1 < features.size(); fi += 2) {
        build_feature_pair(fi, fi + 1);
      }
      if (fi < features.size()) build_feature(fi);
    }
    RebuildMask(&hist);
  }

  /// parent -= small: after this the parent histogram holds the larger
  /// sibling's sums. One contiguous pass over the flat arrays.
  void SubtractHistogram(int parent_id, int small_id) {
    Histogram& p = hists[static_cast<size_t>(parent_id)];
    const Histogram& s = hists[static_cast<size_t>(small_id)];
    const uint32_t padded = padded_bins();
    for (uint32_t b = 0; b < padded; ++b) p.cnt[b] -= s.cnt[b];
    // Bins fully drained into the small child keep a last-ulp residual
    // from the different summation order; force them to exactly zero so
    // the clean-on-release invariant (and the empty-bin skip) hold.
    for (uint32_t b = 0; b < padded; ++b) {
      p.g[b] = (p.g[b] - s.g[b]) * static_cast<double>(p.cnt[b] != 0);
    }
    if (!unit_hess) {
      for (uint32_t b = 0; b < padded; ++b) {
        p.h[b] = (p.h[b] - s.h[b]) * static_cast<double>(p.cnt[b] != 0);
      }
    }
    RebuildMask(&p);
  }
};

void RegressionTree::Fit(const BinnedMatrix& binned,
                         const FeatureBinner& binner,
                         const std::vector<double>& grad,
                         const std::vector<double>& hess,
                         std::vector<uint32_t>* rows,
                         const TreeParams& params, Rng* rng,
                         ThreadPool* pool) {
  nodes_.clear();
  values_.clear();
  leaf_ranges_.clear();
  assert(rows != nullptr && !rows->empty());
  assert(hess.empty() || grad.size() == hess.size());

  TrainState st;
  st.binned = &binned;
  st.binner = &binner;
  st.grad = grad.data();
  st.unit_hess = hess.empty();
  st.hess = st.unit_hess ? nullptr : hess.data();
  st.rows = rows->data();
  st.params = &params;
  st.pool = pool;
  st.total_bins = binned.total_bins();
  if (st.unit_hess) {
    st.recip.resize(rows->size() + 1);
    for (size_t k = 0; k <= rows->size(); ++k) {
      st.recip[k] = 1.0 / (static_cast<double>(k) + params.reg_lambda);
    }
  }
  st.partition_scratch.resize(rows->size() + 2);
  st.partition_scratch_g.resize(rows->size() + 2);
  if (!st.unit_hess) st.partition_scratch_h.resize(rows->size() + 2);
  st.root_rows = rows->size();
  st.identity_root = true;
  for (size_t i = 0; i < rows->size(); ++i) {
    if ((*rows)[i] != i) {
      st.identity_root = false;
      break;
    }
  }
  // One gather at setup; partitions keep these aligned with the rows.
  st.row_grad.resize(rows->size());
  if (st.identity_root) {
    std::memcpy(st.row_grad.data(), grad.data(),
                rows->size() * sizeof(double));
  } else {
    for (size_t i = 0; i < rows->size(); ++i) {
      st.row_grad[i] = grad[(*rows)[i]];
    }
  }
  if (!st.unit_hess) {
    st.row_hess.resize(rows->size());
    if (st.identity_root) {
      std::memcpy(st.row_hess.data(), hess.data(),
                  rows->size() * sizeof(double));
    } else {
      for (size_t i = 0; i < rows->size(); ++i) {
        st.row_hess[i] = hess[(*rows)[i]];
      }
    }
  }

  // Column subsampling (colsample_bytree).
  std::vector<size_t> features(binner.num_features());
  std::iota(features.begin(), features.end(), 0);
  if (params.colsample < 1.0 && rng != nullptr) {
    rng->Shuffle(&features);
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(params.colsample *
                               static_cast<double>(features.size())));
    features.resize(keep);
    std::sort(features.begin(), features.end());
  }
  st.features.assign(features.begin(), features.end());

  double g_sum = 0.0, h_sum = 0.0;
  if (st.unit_hess) {
    for (size_t i = 0; i < rows->size(); ++i) g_sum += grad[(*rows)[i]];
    h_sum = static_cast<double>(rows->size());
  } else {
    for (size_t i = 0; i < rows->size(); ++i) {
      g_sum += grad[(*rows)[i]];
      h_sum += hess[(*rows)[i]];
    }
  }

  nodes_.reserve(std::min<size_t>(2 * rows->size(),
                                  size_t{2} << std::min<size_t>(
                                      params.max_depth, 24)));
  BuildNode(st, /*hist_id=*/-1, 0, rows->size(), 0, g_sum, h_sum);
  depth_ = Depth();
}

int32_t RegressionTree::BuildNode(TrainState& st, int hist_id, size_t begin,
                                  size_t end, size_t depth, double g_sum,
                                  double h_sum) {
  const TreeParams& params = *st.params;
  const int32_t idx = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  values_.push_back(0.0);

  auto make_leaf = [&]() {
    const double value = -g_sum / (h_sum + params.reg_lambda);
    Node& node = nodes_[static_cast<size_t>(idx)];
    node.tv = std::numeric_limits<double>::quiet_NaN();
    node.right = idx;  // self-loop: the traversal select parks here
    node.feature = 0;
    values_[static_cast<size_t>(idx)] = value;
    leaf_ranges_.push_back({static_cast<uint32_t>(begin),
                            static_cast<uint32_t>(end), value});
    if (hist_id >= 0) st.ReleaseHist(hist_id);
    return idx;
  };

  if (depth >= params.max_depth ||
      end - begin < 2 * params.min_samples_leaf ||
      h_sum < 2.0 * params.min_child_weight) {
    return make_leaf();
  }

  if (hist_id < 0) {
    hist_id = st.AcquireHist();
    st.BuildHistogram(hist_id, begin, end);
  }

  const SplitDecision split =
      FindBestSplit(st, hist_id, g_sum, h_sum, end - begin);
  if (!split.found) return make_leaf();

  // Stable branchless partition around the split bin: the left count is
  // already known exactly from the histogram, so each row is written to
  // both candidate slots and the matching cursor advances (no
  // data-dependent branch to mispredict).
  const uint16_t split_bin = split.bin;
  const size_t mid = begin + split.n_left;
  if (mid == begin || mid == end) return make_leaf();  // degenerate split
  {
    // Disjoint scratch regions with one slack slot each: every row is
    // written to both cursors and only the matching cursor advances, so
    // the stray write lands in the slack/next slot of its own region.
    // The carried gradient (and hessian) arrays partition along with the
    // row ids, keeping them sequentially readable per node.
    uint32_t* const scratch = st.partition_scratch.data();
    double* const scratch_g = st.partition_scratch_g.data();
    double* const scratch_h =
        st.unit_hess ? nullptr : st.partition_scratch_h.data();
    auto partition_rows = [&](const auto* fcol) {
      uint32_t* left_out = scratch;
      uint32_t* right_out = scratch + split.n_left + 1;
      double* left_g = scratch_g;
      double* right_g = scratch_g + split.n_left + 1;
      for (size_t i = begin; i < end; ++i) {
        const uint32_t r = st.rows[i];
        const double gv = st.row_grad[i];
        const int go_left = fcol[r] <= split_bin;
        *left_out = r;
        *right_out = r;
        *left_g = gv;
        *right_g = gv;
        left_out += go_left;
        right_out += 1 - go_left;
        left_g += go_left;
        right_g += 1 - go_left;
      }
      assert(left_out == scratch + split.n_left);
      if (!st.unit_hess) {
        double* left_h = scratch_h;
        double* right_h = scratch_h + split.n_left + 1;
        for (size_t i = begin; i < end; ++i) {
          const uint32_t r = st.rows[i];
          const double hv = st.row_hess[i];
          const int go_left = fcol[r] <= split_bin;
          *left_h = hv;
          *right_h = hv;
          left_h += go_left;
          right_h += 1 - go_left;
        }
      }
    };
    if (st.binned->has_packed8()) {
      partition_rows(st.binned->col8(split.feature));
    } else {
      partition_rows(st.binned->col(split.feature));
    }
    std::memcpy(st.rows + begin, scratch,
                split.n_left * sizeof(uint32_t));
    std::memcpy(st.rows + mid, scratch + split.n_left + 1,
                (end - mid) * sizeof(uint32_t));
    std::memcpy(st.row_grad.data() + begin, scratch_g,
                split.n_left * sizeof(double));
    std::memcpy(st.row_grad.data() + mid, scratch_g + split.n_left + 1,
                (end - mid) * sizeof(double));
    if (!st.unit_hess) {
      std::memcpy(st.row_hess.data() + begin, scratch_h,
                  split.n_left * sizeof(double));
      std::memcpy(st.row_hess.data() + mid, scratch_h + split.n_left + 1,
                  (end - mid) * sizeof(double));
    }
  }

  const size_t n_left = mid - begin;
  const size_t n_right = end - mid;
  const double h_left = split.h_left;
  const double g_right = g_sum - split.g_left;
  const double h_right = h_sum - split.h_left;

  // A child only needs a histogram if it can itself split (mirrors the
  // leaf guards at child entry) — the deepest level never builds one.
  auto will_split = [&](size_t n, double h) {
    return depth + 1 < params.max_depth && n >= 2 * params.min_samples_leaf &&
           h >= 2.0 * params.min_child_weight;
  };
  const bool left_splits = will_split(n_left, h_left);
  const bool right_splits = will_split(n_right, h_right);

  int left_hist = -1, right_hist = -1;
  // Subtraction replaces the large child's direct build (n_large × F
  // histogram updates) with whole-array subtract + mask-rebuild passes
  // (O(total_bins)); for small deep nodes the passes cost more than they
  // save, so fall back to direct builds there.
  const bool subtraction_pays =
      std::max(n_left, n_right) * st.features.size() >
      3 * static_cast<size_t>(st.total_bins);
  if (params.use_sibling_subtraction && subtraction_pays) {
    const bool left_is_small = n_left <= n_right;
    const bool large_splits = left_is_small ? right_splits : left_splits;
    const bool small_splits = left_is_small ? left_splits : right_splits;
    if (large_splits) {
      // Build only the smaller side; the larger sibling's histogram is
      // the parent's minus the smaller's.
      const int small_id = st.AcquireHist();
      if (left_is_small) {
        st.BuildHistogram(small_id, begin, mid);
      } else {
        st.BuildHistogram(small_id, mid, end);
      }
      st.SubtractHistogram(hist_id, small_id);
      const int large_id = hist_id;
      hist_id = -1;  // ownership moved to the large child
      int small_for_child = small_id;
      if (!small_splits) {
        st.ReleaseHist(small_id);
        small_for_child = -1;
      }
      left_hist = left_is_small ? small_for_child : large_id;
      right_hist = left_is_small ? large_id : small_for_child;
    }
  }
  if (hist_id >= 0) {
    st.ReleaseHist(hist_id);
    hist_id = -1;
  }

  // Children with hist id -1 build their own lazily (direct mode, or a
  // small child whose large sibling is a leaf).
  const int32_t left =
      BuildNode(st, left_hist, begin, mid, depth + 1, split.g_left, h_left);
  const int32_t right =
      BuildNode(st, right_hist, mid, end, depth + 1, g_right, h_right);
  assert(left == idx + 1);
  (void)left;

  Node& node = nodes_[static_cast<size_t>(idx)];
  node.tv = split.threshold;
  node.right = right;
  node.feature = static_cast<uint32_t>(split.feature);
  return idx;
}

RegressionTree::SplitDecision RegressionTree::FindBestSplit(
    const TrainState& st, int hist_id, double g_total, double h_total,
    size_t n_total) const {
  const TreeParams& params = *st.params;
  const TrainState::Histogram& hist =
      st.hists[static_cast<size_t>(hist_id)];
  const double parent_score = NodeScore(g_total, h_total, params.reg_lambda);

  SplitDecision best;
  // Features scan in ascending index order, so equal gains resolve to the
  // lowest feature/bin — a fixed tie-break independent of thread count.
  //
  // Only occupied bins are visited, driven by the histogram's bitmask
  // (countr_zero walk — no mispredicting cnt==0 branch). Skipping an
  // empty bin never changes the chosen split: it partitions the rows
  // exactly like the previous boundary, its gain ties that candidate,
  // and ties already resolve to the earlier bin.
  const uint64_t* mask = hist.mask.data();
  for (uint32_t f : st.features) {
    const uint32_t n_bins = st.binned->num_bins(f);
    if (n_bins < 2) continue;
    const uint32_t base = st.binned->bin_offset(f);
    const double* bin_g = hist.g.data() + base;
    const uint32_t* bin_n = hist.cnt.data() + base;
    const double* bin_h = st.unit_hess ? nullptr : hist.h.data() + base;
    const double* recip = st.unit_hess ? st.recip.data() : nullptr;
    const double parent_score_t =
        st.unit_hess ? (g_total * g_total) * recip[n_total] : parent_score;

    // Flat-bit range [base, last): the last bin is never a candidate.
    const uint32_t last = base + n_bins - 1;
    double g_left = 0.0, h_left = 0.0;
    size_t n_left = 0;
    for (uint32_t w = base >> 6; w < (last + 63) >> 6; ++w) {
      uint64_t bits = mask[w];
      if (w == base >> 6 && (base & 63) != 0) {
        bits &= ~uint64_t{0} << (base & 63);
      }
      if (((w + 1) << 6) > last) {
        bits &= (uint64_t{1} << (last & 63)) - 1;
      }
      while (bits != 0) {
        const uint32_t b = (w << 6) + std::countr_zero(bits) - base;
        bits &= bits - 1;
        g_left += bin_g[b];
        n_left += bin_n[b];
        h_left += st.unit_hess ? static_cast<double>(bin_n[b]) : bin_h[b];
        const double g_right = g_total - g_left;
        const double h_right = h_total - h_left;
        const size_t n_right = n_total - n_left;
        if (n_left < params.min_samples_leaf ||
            n_right < params.min_samples_leaf) {
          continue;
        }
        if (h_left < params.min_child_weight ||
            h_right < params.min_child_weight) {
          continue;
        }
        // Unit-hessian scan is multiply-add bound: 1/(H + λ) comes from
        // the per-fit reciprocal table instead of two hardware divides.
        const double gain =
            st.unit_hess
                ? 0.5 * ((g_left * g_left) * recip[n_left] +
                         (g_right * g_right) * recip[n_right] -
                         parent_score_t)
                : 0.5 * (NodeScore(g_left, h_left, params.reg_lambda) +
                         NodeScore(g_right, h_right, params.reg_lambda) -
                         parent_score_t);
        if (gain > best.gain + 1e-12 && gain > params.min_split_gain) {
          best.found = true;
          best.feature = f;
          best.bin = static_cast<uint16_t>(b);
          best.threshold = st.binner->BinUpperEdge(f, b);
          best.gain = gain;
          best.g_left = g_left;
          best.h_left = h_left;
          best.n_left = n_left;
        }
      }
    }
  }
  return best;
}

double RegressionTree::Predict(const std::vector<double>& x) const {
  return Predict(x.data());
}

double RegressionTree::Predict(const double* x) const {
  assert(!nodes_.empty());
  const Node* nodes = nodes_.data();
  int32_t idx = 0;
  for (;;) {
    const Node& node = nodes[static_cast<size_t>(idx)];
    // Leaves self-select (x <= NaN is false and right == idx).
    const int32_t next = x[node.feature] <= node.tv ? idx + 1 : node.right;
    if (next == idx) return values_[static_cast<size_t>(idx)];
    idx = next;
  }
}

void RegressionTree::AddPredictions(const double* const* cols, size_t begin,
                                    size_t end, double scale,
                                    double* out) const {
  assert(!nodes_.empty());
  const Node* nodes = nodes_.data();
  const double* values = values_.data();
  // Interleave 8 rows through the tree at once: each level is one
  // dependent load-compare-select per row, so eight independent chains
  // overlap instead of serializing. Leaves self-select, letting every
  // row run the same fixed number of levels branch-free.
  constexpr size_t kGroup = 8;
  const size_t levels = SplitLevels();
  size_t r = begin;
  if (levels > 0) {
    for (; r + kGroup <= end; r += kGroup) {
      int32_t idx[kGroup] = {0};
      for (size_t lvl = 0; lvl < levels; ++lvl) {
        for (size_t k = 0; k < kGroup; ++k) {
          const Node& node = nodes[static_cast<size_t>(idx[k])];
          // Branch-free masked select (a ternary here compiles to a
          // data-dependent branch that mispredicts ~50% of the time at
          // deep levels); leaves self-loop via the always-false NaN
          // compare.
          const int32_t mask =
              -static_cast<int32_t>(cols[node.feature][r + k] <= node.tv);
          idx[k] = (node.right & ~mask) | ((idx[k] + 1) & mask);
        }
      }
      for (size_t k = 0; k < kGroup; ++k) {
        out[r + k - begin] += scale * values[idx[k]];
      }
    }
  }
  // Early-exit walk of the rows that do not fill a group.
  for (; r < end; ++r) {
    int32_t idx = 0;
    for (;;) {
      const Node& node = nodes[static_cast<size_t>(idx)];
      const int32_t next =
          cols[node.feature][r] <= node.tv ? idx + 1 : node.right;
      if (next == idx) {
        out[r - begin] += scale * values[idx];
        break;
      }
      idx = next;
    }
  }
}

void RegressionTree::FillComplete(double scale, double* thresholds,
                                  uint32_t* features, double* leaves) const {
  assert(!nodes_.empty());
  // source[h] is the packed node heap slot h mirrors. A leaf's "children"
  // are the leaf itself, which pads its subtree with copies of it (NaN
  // threshold, feature 0, the leaf's value).
  const size_t internal = (size_t{1} << SplitLevels()) - 1;
  std::vector<int32_t> source(2 * internal + 1);
  source[0] = 0;
  for (size_t h = 0; h < internal; ++h) {
    const int32_t idx = source[h];
    const Node& node = nodes_[static_cast<size_t>(idx)];
    thresholds[h] = node.tv;
    features[h] = node.feature;
    const bool leaf = IsLeaf(static_cast<size_t>(idx));
    source[2 * h + 1] = leaf ? idx : idx + 1;
    source[2 * h + 2] = leaf ? idx : node.right;
  }
  for (size_t j = 0; j <= internal; ++j) {
    const size_t idx = static_cast<size_t>(source[internal + j]);
    assert(IsLeaf(idx));
    leaves[j] = scale * values_[idx];
  }
}

size_t RegressionTree::num_leaves() const {
  size_t leaves = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (IsLeaf(i)) ++leaves;
  }
  return leaves;
}

size_t RegressionTree::Depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the implicit tree structure.
  std::vector<std::pair<int32_t, size_t>> stack{{0, 1}};
  size_t depth = 0;
  while (!stack.empty()) {
    auto [idx, d] = stack.back();
    stack.pop_back();
    depth = std::max(depth, d);
    if (!IsLeaf(static_cast<size_t>(idx))) {
      stack.push_back({idx + 1, d + 1});
      stack.push_back({nodes_[static_cast<size_t>(idx)].right, d + 1});
    }
  }
  return depth;
}

size_t RegressionTree::MaxFeatureIndex() const {
  size_t max_feature = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!IsLeaf(i)) {
      max_feature = std::max<size_t>(max_feature, nodes_[i].feature);
    }
  }
  return max_feature;
}

void RegressionTree::Serialize(std::ostream& os) const {
  // Legacy five-field record (left right feature threshold value); the
  // packed self-looping layout stays an implementation detail.
  os << nodes_.size() << "\n";
  os.precision(17);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (IsLeaf(i)) {
      os << -1 << " " << -1 << " " << n.feature << " " << 0.0 << " "
         << values_[i] << "\n";
    } else {
      os << i + 1 << " " << n.right << " " << n.feature << " " << n.tv
         << " " << 0.0 << "\n";
    }
  }
}

StatusOr<RegressionTree> RegressionTree::Deserialize(std::istream& is) {
  long long n = 0;
  if (!(is >> n)) return Status::IOError("unreadable tree node count");
  if (n <= 0 || static_cast<size_t>(n) > kMaxSerializedNodes) {
    return Status::IOError("tree node count out of range");
  }
  const size_t num_nodes = static_cast<size_t>(n);

  struct RawNode {
    long long left = 0;
    long long right = 0;
    unsigned long long feature = 0;
    double threshold = 0.0;
    double value = 0.0;
  };
  std::vector<RawNode> raw(num_nodes);
  for (auto& node : raw) {
    if (!(is >> node.left >> node.right >> node.feature >> node.threshold >>
          node.value)) {
      return Status::IOError("truncated or malformed tree node record");
    }
    const bool leaf = node.left < 0 || node.right < 0;
    if (leaf) {
      if (node.left != -1 || node.right != -1) {
        return Status::IOError("malformed leaf node record");
      }
    } else if (node.left >= n || node.right >= n) {
      return Status::IOError("tree child index out of range");
    }
    if (node.feature > kMaxSerializedFeature) {
      return Status::IOError("tree feature index out of range");
    }
    if (!std::isfinite(node.threshold) || !std::isfinite(node.value)) {
      return Status::IOError("non-finite tree node field");
    }
  }

  // Rebuild in depth-first order so the packed left-child-at-idx+1
  // invariant holds for any (valid) input ordering; reference counting
  // via `visited` rejects cycles, shared children, and orphan nodes.
  RegressionTree tree;
  tree.nodes_.reserve(num_nodes);
  tree.values_.reserve(num_nodes);
  std::vector<uint8_t> visited(num_nodes, 0);
  struct Item {
    int32_t old_idx;
    int32_t parent_new;
    bool is_right;
  };
  std::vector<Item> stack{{0, -1, false}};
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    if (visited[static_cast<size_t>(item.old_idx)]) {
      return Status::IOError("tree node referenced more than once");
    }
    visited[static_cast<size_t>(item.old_idx)] = 1;
    const RawNode& src = raw[static_cast<size_t>(item.old_idx)];
    const int32_t new_idx = static_cast<int32_t>(tree.nodes_.size());
    if (item.parent_new >= 0 && item.is_right) {
      tree.nodes_[static_cast<size_t>(item.parent_new)].right = new_idx;
    }
    Node node;
    node.feature = static_cast<uint32_t>(src.feature);
    double value = 0.0;
    if (src.left < 0) {
      node.tv = std::numeric_limits<double>::quiet_NaN();
      node.right = new_idx;  // leaf self-loop
      // The traversal reads x[feature] even at leaves (result discarded
      // by the NaN compare), so a leaf record carrying a junk feature
      // index must not survive into the packed node.
      node.feature = 0;
      value = src.value;
    } else {
      node.tv = src.threshold;
      node.right = 0;  // patched when the right child is emitted
    }
    tree.nodes_.push_back(node);
    tree.values_.push_back(value);
    if (src.left >= 0) {
      stack.push_back({static_cast<int32_t>(src.right), new_idx, true});
      stack.push_back({static_cast<int32_t>(src.left), new_idx, false});
    }
  }
  if (tree.nodes_.size() != num_nodes) {
    return Status::IOError("tree has unreachable nodes");
  }
  tree.depth_ = tree.Depth();
  return tree;
}

}  // namespace surf
