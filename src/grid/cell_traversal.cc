#include "grid/cell_traversal.h"

#include <algorithm>

namespace topkmon {

namespace {

struct HeapCompare {
  // std::push_heap builds a max-heap with operator<; compare maxscores.
  bool operator()(const MaxScoreTraversal::Entry& a,
                  const MaxScoreTraversal::Entry& b) const {
    return a.maxscore < b.maxscore;
  }
};

/// Per-axis step from a cell toward lower scores: away from the best
/// corner, i.e. -1 on increasing axes and +1 on decreasing axes.
int DescendingStep(const ScoringFunction& f, int axis) {
  return f.direction(axis) == Monotonicity::kIncreasing ? -1 : +1;
}

}  // namespace

void TraversalScratch::Reset(std::size_t num_cells) {
  if (marks_.size() < num_cells) {
    marks_.assign(num_cells, 0);
    epoch_ = 1;
    return;
  }
  if (++epoch_ == 0) {  // wrapped: clear and restart
    std::fill(marks_.begin(), marks_.end(), 0);
    epoch_ = 1;
  }
}

CellIndex SeedCell(const Grid& grid, const ScoringFunction& f) {
  CellCoords coords{};
  for (int i = 0; i < grid.dim(); ++i) {
    coords[i] = f.direction(i) == Monotonicity::kIncreasing
                    ? grid.cells_per_axis() - 1
                    : 0;
  }
  return grid.Compose(coords);
}

CellIndex ConstrainedSeedCell(const Grid& grid, const ScoringFunction& f,
                              const Rect& constraint) {
  assert(constraint.dim() == grid.dim());
  const Point corner = f.BestCorner(constraint);
  CellCoords coords = grid.Decompose(grid.LocateCell(corner));
  // A corner lying exactly on a grid line can be located into the adjacent
  // cell that does not intersect the constraint (e.g. corner 0.6 on a
  // 10-cell axis: 0.6 * 10 rounds to 6 but cell 6 starts past the
  // constraint's hi of 0.6 - ulp). Nudge such coordinates back inside;
  // cell bounds are reproduced with the same arithmetic as CellBounds().
  const double delta = grid.delta();
  for (int i = 0; i < grid.dim(); ++i) {
    if (coords[i] > 0 && coords[i] * delta > constraint.hi()[i]) {
      --coords[i];
    } else if (coords[i] < grid.cells_per_axis() - 1 &&
               (coords[i] + 1) * delta < constraint.lo()[i]) {
      ++coords[i];
    }
  }
  return grid.Compose(coords);
}

MaxScoreTraversal::MaxScoreTraversal(const Grid& grid,
                                     const ScoringFunction& f,
                                     TraversalScratch* scratch,
                                     const Rect* constraint)
    : grid_(grid), f_(f), scratch_(scratch), constraint_(constraint) {
  assert(f.dim() == grid.dim());
  CellIndex stride = 1;
  for (int axis = grid.dim() - 1; axis >= 0; --axis) {
    step_[axis] = DescendingStep(f, axis);
    stride_[axis] = stride;
    stride *= static_cast<CellIndex>(grid.cells_per_axis());
  }
  scratch_->Reset(grid.num_cells());
  CellIndex seed;
  if (constraint_ == nullptr) {
    seed = SeedCell(grid, f);
  } else {
    // The cell containing the best corner of the constraint region has the
    // highest clipped maxscore (Figure 12 starts at c_{5,5}).
    seed = ConstrainedSeedCell(grid, f, *constraint_);
  }
  Push(seed, grid.Decompose(seed));
}

std::optional<Rect> MaxScoreTraversal::ClippedBounds(CellIndex cell) const {
  Rect bounds = grid_.CellBounds(cell);
  if (constraint_ == nullptr) return bounds;
  if (!bounds.Intersects(*constraint_)) return std::nullopt;
  Point lo(grid_.dim());
  Point hi(grid_.dim());
  for (int i = 0; i < grid_.dim(); ++i) {
    lo[i] = std::max(bounds.lo()[i], constraint_->lo()[i]);
    hi[i] = std::min(bounds.hi()[i], constraint_->hi()[i]);
  }
  return Rect(lo, hi);
}

void MaxScoreTraversal::Push(CellIndex cell, const CellCoords& coords) {
  if (!scratch_->Mark(cell)) return;  // already en-heaped
  double maxscore;
  if (constraint_ == nullptr) {
    // The cell's best corner straight from its coordinates: the hi side
    // on increasing axes, the lo side on decreasing ones — the arithmetic
    // of Grid::CellBounds, so the key equals MaxScore(CellBounds(cell)).
    const double delta = grid_.delta();
    Point corner(grid_.dim());
    for (int i = 0; i < grid_.dim(); ++i) {
      corner[i] = step_[i] < 0 ? std::min(1.0, (coords[i] + 1) * delta)
                               : coords[i] * delta;
    }
    maxscore = f_.Score(corner);
  } else {
    std::optional<Rect> bounds = ClippedBounds(cell);
    if (!bounds.has_value()) return;  // outside the constraint region
    maxscore = f_.MaxScore(*bounds);
  }
  heap_.push_back(Entry{cell, maxscore});
  std::push_heap(heap_.begin(), heap_.end(), HeapCompare{});
}

MaxScoreTraversal::Entry MaxScoreTraversal::Next() {
  assert(HasNext());
  std::pop_heap(heap_.begin(), heap_.end(), HeapCompare{});
  const Entry top = heap_.back();
  heap_.pop_back();
  ++num_processed_;
  // En-heap the per-axis neighbors one step toward lower scores
  // (Figure 6, lines 9-12).
  const CellCoords coords = grid_.Decompose(top.cell);
  for (int axis = 0; axis < grid_.dim(); ++axis) {
    const std::int32_t next = coords[axis] + step_[axis];
    if (next < 0 || next >= grid_.cells_per_axis()) continue;
    CellCoords neighbor = coords;
    neighbor[axis] = next;
    Push(step_[axis] < 0 ? top.cell - stride_[axis] : top.cell + stride_[axis],
         neighbor);
  }
  return top;
}

std::vector<CellIndex> MaxScoreTraversal::RemainingFrontier() const {
  std::vector<CellIndex> frontier;
  frontier.reserve(heap_.size());
  for (const Entry& e : heap_) frontier.push_back(e.cell);
  return frontier;
}

void WalkDescending(const Grid& grid, const ScoringFunction& f,
                    const std::vector<CellIndex>& seeds,
                    TraversalScratch* scratch,
                    const std::function<bool(CellIndex)>& visit) {
  scratch->Reset(grid.num_cells());
  std::vector<CellIndex> list;
  list.reserve(seeds.size());
  for (CellIndex seed : seeds) {
    if (scratch->Mark(seed)) list.push_back(seed);
  }
  // The order of visiting does not matter (Section 4.3), so a plain list
  // replaces the heap.
  for (std::size_t i = 0; i < list.size(); ++i) {
    const CellIndex cell = list[i];
    if (!visit(cell)) continue;
    CellCoords coords = grid.Decompose(cell);
    for (int axis = 0; axis < grid.dim(); ++axis) {
      const int step = DescendingStep(f, axis);
      const std::int32_t next = coords[axis] + step;
      if (next < 0 || next >= grid.cells_per_axis()) continue;
      CellCoords neighbor = coords;
      neighbor[axis] = next;
      const CellIndex ni = grid.Compose(neighbor);
      if (scratch->Mark(ni)) list.push_back(ni);
    }
  }
}

}  // namespace topkmon
