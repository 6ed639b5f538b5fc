#include "grid/grid.h"

#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace topkmon {
namespace {

TEST(GridTest, CellsPerAxisForBudgetMatchesPaperSizing) {
  // Section 8 tunes ~12^4 = 20736 total cells regardless of d.
  EXPECT_EQ(Grid::CellsPerAxisForBudget(4, 20736), 12);
  EXPECT_EQ(Grid::CellsPerAxisForBudget(2, 20736), 144);
  EXPECT_EQ(Grid::CellsPerAxisForBudget(3, 20736), 27);
  EXPECT_EQ(Grid::CellsPerAxisForBudget(5, 20736), 7);
  EXPECT_EQ(Grid::CellsPerAxisForBudget(6, 20736), 5);
  EXPECT_EQ(Grid::CellsPerAxisForBudget(1, 20736), 20736);
  EXPECT_EQ(Grid::CellsPerAxisForBudget(4, 1), 1);
}

TEST(GridTest, DimensionsAndDelta) {
  Grid g(2, 10);
  EXPECT_EQ(g.dim(), 2);
  EXPECT_EQ(g.cells_per_axis(), 10);
  EXPECT_EQ(g.num_cells(), 100u);
  EXPECT_DOUBLE_EQ(g.delta(), 0.1);
}

TEST(GridTest, LocateCellBasics) {
  Grid g(2, 10);
  // Section 4.1: cell c_{i,j} covers [i*delta,(i+1)*delta).
  const CellIndex c = g.LocateCell(Point{0.25, 0.77});
  const CellCoords coords = g.Decompose(c);
  EXPECT_EQ(coords[0], 2);
  EXPECT_EQ(coords[1], 7);
}

TEST(GridTest, LocateCellBoundaryOneMapsToLastCell) {
  Grid g(2, 10);
  const CellCoords coords = g.Decompose(g.LocateCell(Point{1.0, 1.0}));
  EXPECT_EQ(coords[0], 9);
  EXPECT_EQ(coords[1], 9);
}

TEST(GridTest, LocateCellOriginMapsToFirstCell) {
  Grid g(3, 7);
  EXPECT_EQ(g.LocateCell(Point{0.0, 0.0, 0.0}), 0u);
}

TEST(GridTest, ComposeDecomposeRoundTrip) {
  Grid g(4, 6);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const CellIndex c =
        static_cast<CellIndex>(rng.UniformInt(g.num_cells()));
    EXPECT_EQ(g.Compose(g.Decompose(c)), c);
  }
}

TEST(GridTest, CellBoundsContainLocatedPoints) {
  Grid g(3, 9);
  Rng rng(6);
  for (int trial = 0; trial < 500; ++trial) {
    Point p(3);
    for (int i = 0; i < 3; ++i) p[i] = rng.Uniform();
    const CellIndex c = g.LocateCell(p);
    EXPECT_TRUE(g.CellBounds(c).Contains(p)) << p.ToString();
  }
}

TEST(GridTest, CellBoundsTileTheWorkspace) {
  Grid g(2, 4);
  double volume = 0.0;
  for (CellIndex c = 0; c < g.num_cells(); ++c) {
    volume += g.CellBounds(c).Volume();
  }
  EXPECT_NEAR(volume, 1.0, 1e-12);
}

TEST(GridTest, PointListFifo) {
  Grid g(2, 4);
  const CellIndex c = g.LocateCell(Point{0.1, 0.1});
  g.InsertPoint(c, 10, Point{0.1, 0.1});
  g.InsertPoint(c, 11, Point{0.12, 0.1});
  g.InsertPoint(c, 12, Point{0.14, 0.1});
  EXPECT_EQ(g.num_points(), 3u);
  EXPECT_EQ(g.PointsIn(c).size(), 3u);
  g.ErasePointFifo(c, 10);
  EXPECT_EQ(g.PointsIn(c).size(), 2u);
  EXPECT_EQ(*g.PointsIn(c).begin(), 11u);
  EXPECT_EQ(g.num_points(), 2u);
}

TEST(GridTest, PointListPositionalErase) {
  Grid g(2, 4);
  const CellIndex c = 0;
  g.InsertPoint(c, 1, Point{0.01, 0.01});
  g.InsertPoint(c, 2, Point{0.02, 0.02});
  g.InsertPoint(c, 3, Point{0.03, 0.03});
  ASSERT_TRUE(g.ErasePoint(c, 2).ok());
  EXPECT_EQ(g.PointsIn(c).size(), 2u);
  std::vector<RecordId> remaining(g.PointsIn(c).begin(),
                                  g.PointsIn(c).end());
  EXPECT_EQ(remaining, (std::vector<RecordId>{1, 3}));
  EXPECT_EQ(g.ErasePoint(c, 99).code(), StatusCode::kNotFound);
}

TEST(GridTest, PointListCompactionKeepsContents) {
  PointList list;
  for (RecordId i = 0; i < 1000; ++i) {
    list.PushBack(i, Point{static_cast<double>(i) / 1000.0, 0.5});
  }
  for (RecordId i = 0; i < 900; ++i) list.PopFront(i);
  EXPECT_EQ(list.size(), 100u);
  RecordId expect = 900;
  for (RecordId id : list) EXPECT_EQ(id, expect++);
  // The coordinate lanes compact in lockstep with the ids.
  const double* x = list.Lane(0);
  const double* y = list.Lane(1);
  for (std::size_t i = 0; i < list.size(); ++i) {
    EXPECT_DOUBLE_EQ(x[i], static_cast<double>(900 + i) / 1000.0);
    EXPECT_DOUBLE_EQ(y[i], 0.5);
  }
}

// A count window turned over ten times through a grid: the point lists'
// footprint must follow the window, not the number of records that have
// passed through it (expired entries are compacted away, not kept until
// a cell has seen dozens of arrivals).
TEST(GridTest, PointListBytesStayBoundedAcrossWindowTurnovers) {
  constexpr int kDim = 4;
  constexpr std::size_t kWindow = 2000;
  Grid g(kDim, 4);  // 256 cells: about 8 live points a cell
  Rng rng(17);
  std::deque<std::pair<CellIndex, RecordId>> window;
  RecordId next_id = 0;
  std::vector<std::size_t> bytes;
  for (int turnover = 0; turnover < 10; ++turnover) {
    for (std::size_t i = 0; i < kWindow; ++i) {
      Point p(kDim);
      for (int d = 0; d < kDim; ++d) p[d] = rng.Uniform();
      const CellIndex cell = g.LocateCell(p);
      g.InsertPoint(cell, next_id, p);
      window.emplace_back(cell, next_id++);
      if (window.size() > kWindow) {
        g.ErasePointFifo(window.front().first, window.front().second);
        window.pop_front();
      }
    }
    bytes.push_back(g.Memory().Bytes("point_lists"));
  }
  ASSERT_EQ(g.num_points(), kWindow);
  // Capacities settle within about twice the freshly filled footprint
  // (2.1x here); keeping up to 64 dead entries a cell grew it 8.4x.
  EXPECT_LE(bytes.back(), 3 * bytes.front())
      << "after the first fill: " << bytes.front()
      << " bytes, after ten turnovers: " << bytes.back();
}

TEST(GridTest, PointListLanesTrackErase) {
  PointList list;
  list.PushBack(1, Point{0.1, 0.9});
  list.PushBack(2, Point{0.2, 0.8});
  list.PushBack(3, Point{0.3, 0.7});
  ASSERT_TRUE(list.Erase(2));
  ASSERT_EQ(list.size(), 2u);
  EXPECT_DOUBLE_EQ(list.Lane(0)[0], 0.1);
  EXPECT_DOUBLE_EQ(list.Lane(0)[1], 0.3);
  EXPECT_DOUBLE_EQ(list.Lane(1)[0], 0.9);
  EXPECT_DOUBLE_EQ(list.Lane(1)[1], 0.7);
}

TEST(GridTest, InfluenceListAddRemove) {
  Grid g(2, 4);
  g.AddInfluence(3, 7);
  g.AddInfluence(3, 8);
  g.AddInfluence(3, 7);  // idempotent
  EXPECT_TRUE(g.HasInfluence(3, 7));
  EXPECT_TRUE(g.HasInfluence(3, 8));
  EXPECT_EQ(g.InfluenceList(3).size(), 2u);
  EXPECT_EQ(g.TotalInfluenceEntries(), 2u);
  EXPECT_TRUE(g.RemoveInfluence(3, 7));
  EXPECT_FALSE(g.RemoveInfluence(3, 7));
  EXPECT_FALSE(g.HasInfluence(3, 7));
  EXPECT_EQ(g.TotalInfluenceEntries(), 1u);
}

TEST(GridTest, MemoryBreakdownHasExpectedComponents) {
  Grid g(2, 8);
  g.InsertPoint(0, 1, Point{0.05, 0.05});
  g.AddInfluence(0, 1);
  const MemoryBreakdown mb = g.Memory();
  EXPECT_GT(mb.Bytes("grid_directory"), 0u);
  EXPECT_GT(mb.Bytes("point_lists"), 0u);
  EXPECT_GT(mb.Bytes("influence_lists"), 0u);
}

TEST(GridTest, SingleCellGrid) {
  Grid g(2, 1);
  EXPECT_EQ(g.num_cells(), 1u);
  EXPECT_EQ(g.LocateCell(Point{0.0, 0.0}), 0u);
  EXPECT_EQ(g.LocateCell(Point{1.0, 1.0}), 0u);
  const Rect bounds = g.CellBounds(0);
  EXPECT_DOUBLE_EQ(bounds.Volume(), 1.0);
}

TEST(GridTest, HighDimensionalGrid) {
  Grid g(6, 5);
  EXPECT_EQ(g.num_cells(), 15625u);
  Point p{0.99, 0.0, 0.5, 0.2, 0.8, 0.41};
  const CellCoords coords = g.Decompose(g.LocateCell(p));
  EXPECT_EQ(coords[0], 4);
  EXPECT_EQ(coords[1], 0);
  EXPECT_EQ(coords[2], 2);
  EXPECT_EQ(coords[3], 1);
  EXPECT_EQ(coords[4], 4);
  EXPECT_EQ(coords[5], 2);
}

}  // namespace
}  // namespace topkmon
