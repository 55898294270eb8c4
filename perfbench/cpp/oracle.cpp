/**
 * @file
 * The benchmark's own reference algorithms and certificates.
 */

#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <utility>

namespace perfbench::ref {

namespace {

std::string
at(const char* what, std::uint64_t v)
{
    return std::string(what) + " at vertex " + std::to_string(v);
}

/** Union-find with path halving and union by size. */
class UnionFind {
  public:
    explicit UnionFind(Vertex n) : parent_(n), size_(n, 1)
    {
        for (Vertex v = 0; v < n; ++v) {
            parent_[v] = v;
        }
    }

    Vertex
    find(Vertex v)
    {
        while (parent_[v] != v) {
            parent_[v] = parent_[parent_[v]];
            v = parent_[v];
        }
        return v;
    }

    void
    unite(Vertex a, Vertex b)
    {
        a = find(a);
        b = find(b);
        if (a == b) {
            return;
        }
        if (size_[a] < size_[b]) {
            std::swap(a, b);
        }
        parent_[b] = a;
        size_[a] += size_[b];
    }

    std::uint64_t sizeOfRoot(Vertex root) const { return size_[root]; }

  private:
    std::vector<Vertex> parent_;
    std::vector<std::uint64_t> size_;
};

UnionFind
unionAll(const Csr& g)
{
    UnionFind uf(g.numVertices());
    for (Vertex v = 0; v < g.numVertices(); ++v) {
        for (const Arc& a : g.arcsOf(v)) {
            uf.unite(v, a.dst);
        }
    }
    return uf;
}

} // namespace

Csr
Csr::fromEdges(Vertex n, std::span<const Edge> edges, bool mirror)
{
    Csr g;
    g.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const Edge& e : edges) {
        ++g.offsets[e.src + 1];
        if (mirror) {
            ++g.offsets[e.dst + 1];
        }
    }
    for (Vertex v = 0; v < n; ++v) {
        g.offsets[v + 1] += g.offsets[v];
    }
    g.arcs.resize(g.offsets[n]);
    std::vector<std::uint64_t> fill(g.offsets.begin(), g.offsets.end() - 1);
    for (const Edge& e : edges) {
        g.arcs[fill[e.src]++] = {e.dst, e.weight};
        if (mirror) {
            g.arcs[fill[e.dst]++] = {e.src, e.weight};
        }
    }
    return g;
}

std::vector<std::uint64_t>
bfsLevels(const Csr& g, Vertex source)
{
    std::vector<std::uint64_t> level(g.numVertices(), kUnreached);
    std::vector<Vertex> queue;
    queue.reserve(g.numVertices());
    level[source] = 0;
    queue.push_back(source);
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const Vertex u = queue[head];
        for (const Arc& a : g.arcsOf(u)) {
            if (level[a.dst] == kUnreached) {
                level[a.dst] = level[u] + 1;
                queue.push_back(a.dst);
            }
        }
    }
    return level;
}

std::vector<std::uint64_t>
dijkstra(const Csr& g, Vertex source)
{
    using Item = std::pair<std::uint64_t, Vertex>;
    std::vector<std::uint64_t> dist(g.numVertices(), kUnreached);
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    dist[source] = 0;
    heap.emplace(0, source);
    while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d != dist[u]) {
            continue; // superseded entry
        }
        for (const Arc& a : g.arcsOf(u)) {
            const std::uint64_t nd = d + a.weight;
            if (nd < dist[a.dst]) {
                dist[a.dst] = nd;
                heap.emplace(nd, a.dst);
            }
        }
    }
    return dist;
}

std::vector<Vertex>
componentMin(const Csr& g)
{
    UnionFind uf = unionAll(g);
    const Vertex n = g.numVertices();
    std::vector<Vertex> min_of_root(n, n);
    for (Vertex v = 0; v < n; ++v) {
        Vertex& m = min_of_root[uf.find(v)];
        m = std::min(m, v);
    }
    std::vector<Vertex> out(n);
    for (Vertex v = 0; v < n; ++v) {
        out[v] = min_of_root[uf.find(v)];
    }
    return out;
}

std::uint64_t
componentCount(const Csr& g)
{
    UnionFind uf = unionAll(g);
    std::uint64_t count = 0;
    for (Vertex v = 0; v < g.numVertices(); ++v) {
        count += uf.find(v) == v ? 1 : 0;
    }
    return count;
}

std::vector<Vertex>
largestComponent(const Csr& g)
{
    UnionFind uf = unionAll(g);
    const Vertex n = g.numVertices();
    Vertex best = 0;
    for (Vertex v = 0; v < n; ++v) {
        if (uf.find(v) == v && uf.sizeOfRoot(v) > uf.sizeOfRoot(best)) {
            best = v;
        }
    }
    best = n > 0 ? uf.find(best) : 0;
    std::vector<Vertex> members;
    for (Vertex v = 0; v < n; ++v) {
        if (uf.find(v) == best) {
            members.push_back(v);
        }
    }
    return members;
}

std::vector<double>
pageRank(const Csr& g, unsigned iterations, double damping)
{
    const Vertex n = g.numVertices();
    const double base = damping / static_cast<double>(n);
    std::vector<double> rank(n, 1.0 / static_cast<double>(n));
    std::vector<double> share(n);
    for (unsigned it = 0; it < iterations; ++it) {
        for (Vertex u = 0; u < n; ++u) {
            const std::uint64_t deg = g.offsets[u + 1] - g.offsets[u];
            share[u] = deg == 0 ? 0.0 : rank[u] / static_cast<double>(deg);
        }
        for (Vertex v = 0; v < n; ++v) {
            double sum = 0.0;
            for (const Arc& a : g.arcsOf(v)) {
                sum += share[a.dst];
            }
            rank[v] = base + (1.0 - damping) * sum;
        }
    }
    return rank;
}

std::string
checkBfs(const Csr& g, Vertex source, std::span<const std::uint32_t> level,
         std::span<const Vertex> parent, std::uint32_t unreached)
{
    const Vertex n = g.numVertices();
    if (level.size() != n || parent.size() != n) {
        return "bfs: output size differs from the vertex count";
    }
    if (level[source] != 0) {
        return "bfs: source is not at level 0";
    }
    for (Vertex u = 0; u < n; ++u) {
        const bool reached = level[u] != unreached;
        bool has_parent = false;
        for (const Arc& a : g.arcsOf(u)) {
            const bool nbr_reached = level[a.dst] != unreached;
            if (reached != nbr_reached) {
                return at("bfs: edge joins reached and unreached", u);
            }
            if (!reached) {
                continue;
            }
            const std::uint32_t lo = std::min(level[u], level[a.dst]);
            const std::uint32_t hi = std::max(level[u], level[a.dst]);
            if (hi - lo > 1) {
                return at("bfs: edge spans more than one level", u);
            }
            has_parent = has_parent ||
                         (a.dst == parent[u] && level[a.dst] + 1 == level[u]);
        }
        if (reached && u != source && !has_parent) {
            return at("bfs: no parent one level up", u);
        }
    }
    return {};
}

std::string
checkSssp(const Csr& g, Vertex source, std::span<const std::uint64_t> dist,
          std::uint64_t unreached)
{
    const Vertex n = g.numVertices();
    if (dist.size() != n) {
        return "sssp: output size differs from the vertex count";
    }
    if (dist[source] != 0) {
        return "sssp: source is not at distance 0";
    }
    for (Vertex u = 0; u < n; ++u) {
        const bool reached = dist[u] != unreached;
        bool tight = false;
        for (const Arc& a : g.arcsOf(u)) {
            if (dist[a.dst] == unreached) {
                if (reached) {
                    return at("sssp: edge can be relaxed", u);
                }
                continue;
            }
            if (!reached || dist[a.dst] + a.weight < dist[u]) {
                return at("sssp: edge can be relaxed", a.dst);
            }
            // The twin arc a.dst -> u has the same weight.
            tight = tight || dist[a.dst] + a.weight == dist[u];
        }
        if (reached && u != source && !tight) {
            return at("sssp: no tight in-edge", u);
        }
    }
    return {};
}

std::string
checkComponents(const Csr& g, std::span<const Vertex> label,
                std::uint64_t reported_count, std::uint64_t expected_count)
{
    const Vertex n = g.numVertices();
    if (label.size() != n) {
        return "cc: output size differs from the vertex count";
    }
    for (Vertex u = 0; u < n; ++u) {
        for (const Arc& a : g.arcsOf(u)) {
            if (label[a.dst] != label[u]) {
                return at("cc: labels differ across an edge", u);
            }
        }
    }
    std::vector<Vertex> distinct(label.begin(), label.end());
    std::sort(distinct.begin(), distinct.end());
    const auto labels = static_cast<std::uint64_t>(
        std::unique(distinct.begin(), distinct.end()) - distinct.begin());
    if (labels != expected_count) {
        return "cc: " + std::to_string(labels) + " distinct labels, " +
               std::to_string(expected_count) + " components";
    }
    if (reported_count != expected_count) {
        return "cc: reported " + std::to_string(reported_count) +
               " components, " + std::to_string(expected_count) +
               " exist";
    }
    return {};
}

std::string
checkClose(std::span<const double> got, std::span<const double> want,
           double rel_tol)
{
    if (got.size() != want.size()) {
        return "pagerank: output size differs from the vertex count";
    }
    for (std::size_t v = 0; v < got.size(); ++v) {
        // Written so that a NaN fails too.
        if (!(std::fabs(got[v] - want[v]) <= rel_tol * std::fabs(want[v]))) {
            return at("pagerank: score off the reference", v);
        }
    }
    return {};
}

} // namespace perfbench::ref
