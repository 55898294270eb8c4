/**
 * @file
 * Tests of the benchmark's output checks on tiny hand-made graphs:
 * the reference algorithms give known answers, right outputs pass,
 * and corrupted ones are flagged.
 */

#include "oracle.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench::ref {
namespace {

constexpr std::uint32_t kNoLevel = ~std::uint32_t{0};
constexpr Vertex kNoVertex = ~Vertex{0};

/**
 *   0 -1- 1 -1- 2        5 -2- 6
 *   |           |
 *   4 ----7---- 3        7 (isolated)
 * with weights on the arcs; vertex 3 is closer via 2 than via 4.
 */
Csr
twoComponents()
{
    const std::vector<Edge> edges = {
        {0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 4, 1}, {4, 3, 7}, {5, 6, 2},
    };
    return Csr::fromEdges(8, edges, /*mirror=*/true);
}

std::vector<std::uint32_t>
levels32(const std::vector<std::uint64_t>& levels)
{
    std::vector<std::uint32_t> out;
    for (const std::uint64_t l : levels) {
        out.push_back(l == kUnreached ? kNoLevel
                                      : static_cast<std::uint32_t>(l));
    }
    return out;
}

TEST(Reference, BfsDijkstraAndComponentsOnHandGraph)
{
    const Csr g = twoComponents();
    EXPECT_EQ(bfsLevels(g, 0),
              (std::vector<std::uint64_t>{0, 1, 2, 2, 1, kUnreached,
                                          kUnreached, kUnreached}));
    EXPECT_EQ(dijkstra(g, 0),
              (std::vector<std::uint64_t>{0, 1, 2, 3, 1, kUnreached,
                                          kUnreached, kUnreached}));
    EXPECT_EQ(componentMin(g),
              (std::vector<Vertex>{0, 0, 0, 0, 0, 5, 5, 7}));
    EXPECT_EQ(componentCount(g), 3u);
    EXPECT_EQ(largestComponent(g), (std::vector<Vertex>{0, 1, 2, 3, 4}));
}

TEST(Reference, ParallelEdgesCountInDegreeAndDistance)
{
    // Two parallel 0-1 edges of weights 5 and 2: the shorter wins.
    const std::vector<Edge> edges = {{0, 1, 5}, {0, 1, 2}, {1, 2, 1}};
    const Csr g = Csr::fromEdges(3, edges, true);
    EXPECT_EQ(g.arcsOf(0).size(), 2u);
    EXPECT_EQ(dijkstra(g, 0), (std::vector<std::uint64_t>{0, 2, 3}));
}

TEST(Reference, PageRankMatchesHandIteration)
{
    // Path 0-1-2: degrees 1, 2, 1. One iteration from 1/3 each with
    // r = 0.15: PR(0) = r/3 + (1-r) * (1/3)/2, PR(1) = r/3 + (1-r) *
    // 2/3, PR(2) = PR(0).
    const std::vector<Edge> edges = {{0, 1, 1}, {1, 2, 1}};
    const Csr g = Csr::fromEdges(3, edges, true);
    const std::vector<double> pr = pageRank(g, 1, 0.15);
    const double end = 0.05 + 0.85 / 6.0;
    const double mid = 0.05 + 0.85 * 2.0 / 3.0;
    EXPECT_DOUBLE_EQ(pr[0], end);
    EXPECT_DOUBLE_EQ(pr[1], mid);
    EXPECT_DOUBLE_EQ(pr[2], end);
}

TEST(CheckBfs, AcceptsRightLevelsAndFlagsCorruptions)
{
    const Csr g = twoComponents();
    const std::vector<std::uint32_t> level = levels32(bfsLevels(g, 0));
    const std::vector<Vertex> parent = {0, 0, 1, 4, 0, kNoVertex,
                                        kNoVertex, kNoVertex};
    EXPECT_EQ(checkBfs(g, 0, level, parent, kNoLevel), "");

    auto bad = level;
    bad[0] = 1;
    EXPECT_NE(checkBfs(g, 0, bad, parent, kNoLevel), "") << "source";
    bad = level;
    bad[1] = 3; // 0 -> 1 spans three levels
    EXPECT_NE(checkBfs(g, 0, bad, parent, kNoLevel), "") << "span";
    bad = level;
    bad[3] = kNoLevel;
    EXPECT_NE(checkBfs(g, 0, bad, parent, kNoLevel), "") << "unreached";
    bad = level;
    bad[6] = 1;
    EXPECT_NE(checkBfs(g, 0, bad, parent, kNoLevel), "") << "stray";
    auto bad_parent = parent;
    bad_parent[3] = 1; // not a neighbour
    EXPECT_NE(checkBfs(g, 0, level, bad_parent, kNoLevel), "") << "parent";
    bad_parent = parent;
    bad_parent[1] = 2; // a neighbour, but one level down
    EXPECT_NE(checkBfs(g, 0, level, bad_parent, kNoLevel), "") << "parent";
}

TEST(CheckSssp, AcceptsRightDistancesAndFlagsCorruptions)
{
    const Csr g = twoComponents();
    const std::vector<std::uint64_t> dist = dijkstra(g, 0);
    EXPECT_EQ(checkSssp(g, 0, dist, kUnreached), "");

    auto bad = dist;
    bad[3] = 8; // via 4: tight, but 2 -> 3 relaxes it
    EXPECT_NE(checkSssp(g, 0, bad, kUnreached), "") << "relaxable";
    bad = dist;
    bad[3] = 2; // too short: no tight in-edge
    EXPECT_NE(checkSssp(g, 0, bad, kUnreached), "") << "not tight";
    bad = dist;
    bad[0] = 1;
    EXPECT_NE(checkSssp(g, 0, bad, kUnreached), "") << "source";
    bad = dist;
    bad[4] = kUnreached;
    EXPECT_NE(checkSssp(g, 0, bad, kUnreached), "") << "unreached";
    bad = dist;
    bad[5] = 0;
    bad[6] = 2;
    EXPECT_NE(checkSssp(g, 0, bad, kUnreached), "") << "stray";
}

TEST(CheckComponents, AcceptsRightLabelsAndFlagsCorruptions)
{
    const Csr g = twoComponents();
    const std::uint64_t count = componentCount(g);
    const std::vector<Vertex> label = componentMin(g);
    EXPECT_EQ(checkComponents(g, label, 3, count), "");

    auto bad = label;
    bad[2] = 2; // splits {0..4}
    EXPECT_NE(checkComponents(g, bad, 3, count), "") << "split";
    bad = label;
    bad[7] = 5; // merges 7 into {5, 6}
    EXPECT_NE(checkComponents(g, bad, 3, count), "") << "merged";
    EXPECT_NE(checkComponents(g, label, 2, count), "") << "count";
}

TEST(CheckClose, FlagsPerturbedAndNanScores)
{
    const std::vector<double> want = {0.25, 0.5, 0.25};
    EXPECT_EQ(checkClose(want, want, 1e-9), "");
    auto got = want;
    got[1] *= 1.0 + 1e-12;
    EXPECT_EQ(checkClose(got, want, 1e-9), "") << "within tolerance";
    got[1] = want[1] * (1.0 + 1e-6);
    EXPECT_NE(checkClose(got, want, 1e-9), "") << "perturbed";
    got[1] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NE(checkClose(got, want, 1e-9), "") << "nan";
    got.pop_back();
    EXPECT_NE(checkClose(got, want, 1e-9), "") << "size";
}

} // namespace
} // namespace perfbench::ref
