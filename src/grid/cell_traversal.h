// Cell visiting order for monotone scoring functions (Section 4.2).
//
// The naive way to find the cells that may contain top-k results is to
// compute maxscore for every cell and sort. The paper's computation module
// instead exploits monotonicity (Figure 5b): the corner cell maximizing f
// has the globally highest maxscore, and after processing a cell, only its
// per-axis neighbors one step in the score-decreasing direction can be
// next. A max-heap seeded with the corner cell therefore enumerates cells
// in exact descending maxscore order while touching only the cells it
// returns plus their immediate frontier.
//
// MaxScoreTraversal implements that enumeration (optionally restricted to
// a constraint rectangle, Section 7); WalkDescending implements the
// order-free list walk used for influence-list cleanup (Section 4.3) and
// threshold queries (Section 7).

#ifndef TOPKMON_GRID_CELL_TRAVERSAL_H_
#define TOPKMON_GRID_CELL_TRAVERSAL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/scoring.h"
#include "grid/grid.h"

namespace topkmon {

/// Reusable visited-cell marks. Epoch-stamped so that Reset() is O(1) and
/// no per-traversal allocation or clearing happens once the buffer reaches
/// the grid size. One scratch must not be shared by two live traversals.
class TraversalScratch {
 public:
  /// Prepares the scratch for a new traversal over `num_cells` cells.
  void Reset(std::size_t num_cells);

  /// Marks a cell; returns true iff it was not yet marked this epoch.
  bool Mark(CellIndex cell) {
    assert(cell < marks_.size());
    if (marks_[cell] == epoch_) return false;
    marks_[cell] = epoch_;
    return true;
  }

  bool IsMarked(CellIndex cell) const {
    assert(cell < marks_.size());
    return marks_[cell] == epoch_;
  }

  /// Reusable batch-scoring buffer for the per-cell point scan
  /// (core/topk_compute.cc); it lives here so the per-engine scratch
  /// carries the allocation across cycles.
  std::vector<double>& scores() { return scores_; }

  std::size_t MemoryBytes() const {
    return VectorBytes(marks_) + VectorBytes(scores_);
  }

 private:
  std::vector<std::uint32_t> marks_;
  std::vector<double> scores_;
  std::uint32_t epoch_ = 0;
};

/// Enumerates grid cells in descending maxscore order for a monotone
/// scoring function, expanding neighbors lazily (Figure 5b / Figure 6).
class MaxScoreTraversal {
 public:
  struct Entry {
    CellIndex cell;
    double maxscore;
  };

  /// Starts a traversal. If `constraint` is non-null, only cells
  /// intersecting it are visited and maxscores are computed on the
  /// clipped rectangle cell ∩ constraint (constrained top-k, Section 7).
  /// `scratch` must outlive the traversal and not be shared concurrently.
  MaxScoreTraversal(const Grid& grid, const ScoringFunction& f,
                    TraversalScratch* scratch,
                    const Rect* constraint = nullptr);

  /// True iff at least one unprocessed cell remains en-heaped.
  bool HasNext() const { return !heap_.empty(); }

  /// Maxscore key of the next cell. Requires HasNext().
  double PeekMaxScore() const {
    assert(HasNext());
    return heap_.front().maxscore;
  }

  /// Pops the cell with the highest maxscore and en-heaps its
  /// score-decreasing neighbors (marking them so no cell is en-heaped
  /// twice). Requires HasNext().
  Entry Next();

  /// Number of cells returned by Next() so far.
  std::size_t num_processed() const { return num_processed_; }

  /// Cells currently en-heaped but not processed: the frontier left when
  /// the caller stops early. TMA seeds its influence-list cleanup walk
  /// with exactly these cells (Section 4.3).
  std::vector<CellIndex> RemainingFrontier() const;

 private:
  /// En-heaps `cell`, whose per-axis coordinates are `coords`.
  void Push(CellIndex cell, const CellCoords& coords);
  /// Clips `cell`'s bounds against the constraint; returns nullopt when the
  /// cell does not intersect it.
  std::optional<Rect> ClippedBounds(CellIndex cell) const;

  const Grid& grid_;
  const ScoringFunction& f_;
  TraversalScratch* scratch_;
  const Rect* constraint_;
  /// Per-axis step toward lower scores (-1 on increasing axes, +1 on
  /// decreasing ones), read once from f_, and the flattened-index stride
  /// of one step along each axis.
  std::array<int, kMaxDims> step_{};
  std::array<CellIndex, kMaxDims> stride_{};
  std::vector<Entry> heap_;  // std::push_heap/pop_heap max-heap on maxscore
  std::size_t num_processed_ = 0;
};

/// Order-free walk from `seeds` toward decreasing scores: visits each seed,
/// and whenever `visit(cell)` returns true, expands to the cell's
/// score-decreasing neighbors (each cell visited at most once).
/// Implements the "list" walks of Sections 4.3 (influence-list cleanup,
/// query termination) and 7 (threshold queries).
void WalkDescending(const Grid& grid, const ScoringFunction& f,
                    const std::vector<CellIndex>& seeds,
                    TraversalScratch* scratch,
                    const std::function<bool(CellIndex)>& visit);

/// The cell containing the best corner of the workspace for `f` — the
/// traversal seed of Figure 6 (top-right cell for functions increasing on
/// both axes).
CellIndex SeedCell(const Grid& grid, const ScoringFunction& f);

/// The seed cell for a constrained query (Figure 12): the cell containing
/// the best corner of `constraint`, corrected for the floating-point case
/// where the corner lies exactly on a grid line and naive location would
/// pick a cell that does not intersect the constraint.
CellIndex ConstrainedSeedCell(const Grid& grid, const ScoringFunction& f,
                              const Rect& constraint);

}  // namespace topkmon

#endif  // TOPKMON_GRID_CELL_TRAVERSAL_H_
