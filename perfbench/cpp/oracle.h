/**
 * @file
 * The benchmark's own output checks, written apart from the program
 * they judge: a plain CSR of its own, queue BFS, binary-heap Dijkstra,
 * union-find and power iteration. Nothing here includes a crono
 * header, so a fault in the program's graph, runtime or kernel code
 * cannot leak into the verdict.
 *
 * Every checker takes a symmetric graph (each arc u->v has a twin
 * v->u of the same weight), which all benchmark inputs are; the
 * in-edges a certificate needs are then the vertex's own arcs.
 * Checkers return an empty string on success and a one-line reason
 * otherwise.
 */

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench::ref {

using Vertex = std::uint32_t;

/** Unreached marker of bfsLevels() and dijkstra(). */
inline constexpr std::uint64_t kUnreached = ~std::uint64_t{0};

struct Arc {
    Vertex dst;
    std::uint32_t weight;
};

struct Edge {
    Vertex src;
    Vertex dst;
    std::uint32_t weight;
};

/** Compressed adjacency: arcs of v are arcs[offsets[v], offsets[v+1]). */
struct Csr {
    std::vector<std::uint64_t> offsets;
    std::vector<Arc> arcs;

    Vertex numVertices() const
    {
        return offsets.empty() ? 0
                               : static_cast<Vertex>(offsets.size() - 1);
    }

    std::span<const Arc>
    arcsOf(Vertex v) const
    {
        return {arcs.data() + offsets[v],
                static_cast<std::size_t>(offsets[v + 1] - offsets[v])};
    }

    /**
     * Build from an edge list; @p mirror adds the reverse arc of each
     * edge. Parallel edges are kept (the multiset is what counts).
     */
    static Csr fromEdges(Vertex n, std::span<const Edge> edges,
                         bool mirror);
};

/** Hop count from @p source (kUnreached where unreached). */
std::vector<std::uint64_t> bfsLevels(const Csr& g, Vertex source);

/** Weighted distance from @p source (kUnreached where unreached). */
std::vector<std::uint64_t> dijkstra(const Csr& g, Vertex source);

/** Smallest member id of every vertex's component (union-find). */
std::vector<Vertex> componentMin(const Csr& g);

/** Number of connected components (union-find). */
std::uint64_t componentCount(const Csr& g);

/** Ids of the largest connected component, ascending. */
std::vector<Vertex> largestComponent(const Csr& g);

/**
 * @p iterations of the paper's Equation 1 in its normalized form,
 * PR'(v) = r/n + (1-r) * sum over arcs (v,u) of PR(u)/deg(u), from
 * the uniform 1/n start (a vertex without arcs gives nothing).
 */
std::vector<double> pageRank(const Csr& g, unsigned iterations,
                             double damping);

/**
 * BFS level certificate: the source is at level 0; no edge spans more
 * than one level (nor joins a reached and an unreached vertex); every
 * other reached vertex's parent is a neighbour one level up.
 * @p unreached is the program's marker in @p level.
 */
std::string checkBfs(const Csr& g, Vertex source,
                     std::span<const std::uint32_t> level,
                     std::span<const Vertex> parent,
                     std::uint32_t unreached);

/**
 * SSSP distance certificate: the source is at 0; no arc can be
 * relaxed; every other reached vertex has a tight in-arc.
 * @p unreached is the program's marker in @p dist.
 */
std::string checkSssp(const Csr& g, Vertex source,
                      std::span<const std::uint64_t> dist,
                      std::uint64_t unreached);

/**
 * Component labelling: labels agree across every arc, and both the
 * number of distinct labels and @p reported_count equal
 * @p expected_count (the checker's own union-find count).
 */
std::string checkComponents(const Csr& g, std::span<const Vertex> label,
                            std::uint64_t reported_count,
                            std::uint64_t expected_count);

/** Every |got - want| <= rel_tol * |want|. */
std::string checkClose(std::span<const double> got,
                       std::span<const double> want, double rel_tol);

} // namespace perfbench::ref

#endif // PERFBENCH_ORACLE_H_
