#include "opt/naive_search.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/stopwatch.h"

namespace surf {

NaiveSearchResult NaiveSearch::Run(const RegionObjective& objective,
                                   const RegionSolutionSpace& space) const {
  const size_t d = space.dims();
  const size_t n = std::max<size_t>(1, params_.centers_per_dim);
  const size_t m = std::max<size_t>(1, params_.sizes_per_dim);
  const size_t per_dim = n * m;

  NaiveSearchResult result;
  result.total_candidates = 1;
  for (size_t i = 0; i < d; ++i) {
    // Guard against overflow for large d.
    if (result.total_candidates > (UINT64_MAX / per_dim)) {
      result.total_candidates = UINT64_MAX;
      break;
    }
    result.total_candidates *= per_dim;
  }

  // Pre-compute the per-dimension candidate centers and half-lengths.
  std::vector<std::vector<double>> centers(d), lengths(d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t a = 0; a < n; ++a) {
      const double t = n == 1 ? 0.5
                              : static_cast<double>(a) /
                                    static_cast<double>(n - 1);
      centers[i].push_back(space.bounds.lo(i) + t * space.bounds.Extent(i));
    }
    for (size_t b = 0; b < m; ++b) {
      const double t = m == 1 ? 0.5
                              : static_cast<double>(b) /
                                    static_cast<double>(m - 1);
      lengths[i].push_back(space.min_half_length +
                           t * (space.max_half_length -
                                space.min_half_length));
    }
  }

  Stopwatch timer;
  std::vector<size_t> odo(d, 0);  // per-dim combined (center, size) index
  std::vector<double> center(d), half(d);

  // Candidates are scored in chunks through the objective's batched path:
  // one surrogate PredictBatch per chunk instead of one tree-walk per
  // grid cell. Budgets are re-checked between chunks.
  constexpr size_t kChunk = 256;
  std::vector<Region> chunk;
  chunk.reserve(kChunk);
  bool exhausted = false;
  while (!exhausted) {
    chunk.clear();
    size_t limit = kChunk;
    if (params_.max_evaluations > 0) {
      const uint64_t remaining = params_.max_evaluations - result.examined;
      limit = std::min<uint64_t>(limit, remaining);
    }
    while (chunk.size() < limit) {
      // Decode the odometer into a region.
      for (size_t i = 0; i < d; ++i) {
        center[i] = centers[i][odo[i] / m];
        half[i] = lengths[i][odo[i] % m];
      }
      chunk.emplace_back(center, half);

      // Advance the odometer.
      size_t i = d;
      bool done = true;
      while (i > 0) {
        --i;
        if (odo[i] + 1 < per_dim) {
          ++odo[i];
          for (size_t k = i + 1; k < d; ++k) odo[k] = 0;
          done = false;
          break;
        }
      }
      if (done) {
        exhausted = true;
        break;
      }
    }
    if (chunk.empty()) break;

    const std::vector<FitnessValue> evals = objective.EvaluateMany(chunk);
    result.examined += chunk.size();
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (!evals[i].valid) continue;
      ScoredRegion scored;
      scored.region = chunk[i];
      scored.fitness = evals[i].value;
      scored.statistic = evals[i].statistic;
      result.viable.push_back(std::move(scored));
    }

    if (params_.time_budget_seconds > 0.0 &&
        timer.ElapsedSeconds() > params_.time_budget_seconds) {
      result.timed_out = true;
      break;
    }
    if (params_.max_evaluations > 0 &&
        result.examined >= params_.max_evaluations) {
      result.timed_out = result.examined < result.total_candidates;
      break;
    }
  }
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

std::vector<ScoredRegion> SelectDistinctRegions(
    std::vector<ScoredRegion> candidates, double max_iou,
    size_t max_regions) {
  std::sort(candidates.begin(), candidates.end(),
            [](const ScoredRegion& a, const ScoredRegion& b) {
              return a.fitness > b.fitness;
            });
  std::vector<ScoredRegion> kept;
  std::vector<double> center;
  for (auto& cand : candidates) {
    if (kept.size() >= max_regions) break;
    center.assign(cand.region.dims(), 0.0);
    for (size_t j = 0; j < cand.region.dims(); ++j) {
      center[j] = cand.region.center(j);
    }
    bool overlaps = false;
    std::vector<double> kept_center(cand.region.dims());
    for (const auto& k : kept) {
      // A candidate is a duplicate of a better region when they overlap
      // heavily OR when the boxes mutually contain each other's centers
      // — the latter catches shifted near-copies of the same basin
      // whose IoU dips just under the ceiling. Requiring containment
      // both ways keeps genuinely distinct discoveries (e.g. a large
      // region whose center merely falls inside a small unrelated
      // hotspot) reportable.
      for (size_t j = 0; j < k.region.dims(); ++j) {
        kept_center[j] = k.region.center(j);
      }
      if (cand.region.IoU(k.region) > max_iou ||
          (k.region.Contains(center) &&
           cand.region.Contains(kept_center))) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) kept.push_back(std::move(cand));
  }
  return kept;
}

}  // namespace surf
