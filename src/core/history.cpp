#include "core/history.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <tuple>

#include "util/check.h"
#include "util/flat_set.h"
#include "util/text_writer.h"

namespace psoodb::core {

namespace {

/// One installed version: `obj` at `version`, by the commit at index `txn`
/// of the record.
struct Install {
  storage::ObjectId obj;
  storage::Version version;
  std::uint32_t txn;
};

/// Every commit's writes, sorted by (object, version, commit index).
std::vector<Install> SortedInstalls(const std::vector<CommittedTxn>& txns) {
  PSOODB_CHECK(txns.size() <= UINT32_MAX, "history too long to check");
  std::size_t n = 0;
  for (const CommittedTxn& t : txns) n += t.writes.size();
  std::vector<Install> installs;
  installs.reserve(n);
  for (std::size_t i = 0; i < txns.size(); ++i) {
    for (const auto& [oid, v] : txns[i].writes) {
      installs.push_back({oid, v, static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(installs.begin(), installs.end(),
            [](const Install& a, const Install& b) {
              return std::tie(a.obj, a.version, a.txn) <
                     std::tie(b.obj, b.version, b.txn);
            });
  return installs;
}

/// The installs of one object: [begin, end) of the deduplicated vector.
struct Range {
  std::uint32_t begin;
  std::uint32_t end;
};

/// Conflict graph in compressed sparse rows: the successors of node v are
/// targets[offsets[v] .. offsets[v + 1]).
struct Graph {
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> targets;
};

using Edge = std::pair<std::uint32_t, std::uint32_t>;

/// Counting sort of `edges` by source.
Graph ToCsr(std::size_t nodes, const std::vector<Edge>& edges) {
  Graph g;
  g.offsets.assign(nodes + 1, 0);
  for (const Edge& e : edges) ++g.offsets[e.first + 1];
  for (std::size_t v = 0; v < nodes; ++v) g.offsets[v + 1] += g.offsets[v];
  g.targets.resize(edges.size());
  std::vector<std::uint32_t> next(g.offsets.begin(), g.offsets.end() - 1);
  for (const Edge& e : edges) g.targets[next[e.first]++] = e.second;
  return g;
}

/// Iterative three-colour DFS. On the first back edge, returns the gray
/// path from its target to its source (a cycle); empty if acyclic.
std::vector<std::uint32_t> FindCycle(const Graph& g) {
  const std::size_t n = g.offsets.size() - 1;
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> colour(n, kWhite);
  // The gray path: (node, its next outgoing edge).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> path;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (colour[root] != kWhite) continue;
    colour[root] = kGray;
    path.emplace_back(root, g.offsets[root]);
    while (!path.empty()) {
      const std::uint32_t v = path.back().first;
      const std::uint32_t e = path.back().second++;
      if (e == g.offsets[v + 1]) {
        colour[v] = kBlack;
        path.pop_back();
        continue;
      }
      const std::uint32_t w = g.targets[e];
      if (colour[w] == kGray) {
        auto from = path.begin();
        while (from->first != w) ++from;
        std::vector<std::uint32_t> cycle;
        for (auto it = from; it != path.end(); ++it) cycle.push_back(it->first);
        return cycle;
      }
      if (colour[w] == kWhite) {
        colour[w] = kGray;
        path.emplace_back(w, g.offsets[w]);
      }
    }
  }
  return {};
}

}  // namespace

void History::Append(History&& other) {
  if (txns_.empty()) {
    txns_ = std::move(other.txns_);
  } else {
    txns_.insert(txns_.end(), std::make_move_iterator(other.txns_.begin()),
                 std::make_move_iterator(other.txns_.end()));
  }
  other.txns_.clear();
}

bool History::IsSerializable(std::string* why) const {
  std::vector<Install> installs = SortedInstalls(txns_);
  // Keep one install per (object, version). A version installed twice is a
  // lost update (NoLostUpdates reports it); its writer here is the later
  // commit in record order.
  std::size_t kept = 0;
  for (const Install& x : installs) {
    if (kept > 0 && installs[kept - 1].obj == x.obj &&
        installs[kept - 1].version == x.version) {
      installs[kept - 1] = x;
    } else {
      installs[kept++] = x;
    }
  }
  installs.resize(kept);

  std::vector<Edge> edges;
  const auto add_edge = [&edges](std::uint32_t a, std::uint32_t b) {
    if (a != b) edges.emplace_back(a, b);
  };
  // ww: writer(v) -> writer(v') for consecutive installed versions of one
  // object; and each written object's range of installs.
  util::FlatMap<storage::ObjectId, Range> objects;
  for (std::uint32_t i = 0, begin = 0; i < kept; ++i) {
    if (i + 1 < kept && installs[i + 1].obj == installs[i].obj) {
      add_edge(installs[i].txn, installs[i + 1].txn);
      continue;
    }
    objects.emplace(installs[i].obj, Range{begin, i + 1});
    begin = i + 1;
  }
  const Install* const base = installs.data();
  for (std::uint32_t r = 0; r < txns_.size(); ++r) {
    for (const auto& [oid, v] : txns_[r].reads) {
      const Range* range = objects.find(oid);
      if (range == nullptr) continue;  // never written: no conflict
      const Install* const end = base + range->end;
      const Install* next =
          std::partition_point(base + range->begin, end,
                               [v](const Install& x) { return x.version < v; });
      // wr: writer(v) -> reader. Version 0 is the initial state.
      if (next != end && next->version == v) {
        if (v > 0) add_edge(next->txn, r);
        ++next;
      }
      // rw: reader -> writer of the next installed version after v.
      if (next != end) add_edge(r, next->txn);
    }
  }

  const std::vector<std::uint32_t> cycle =
      FindCycle(ToCsr(txns_.size(), edges));
  if (cycle.empty()) return true;
  if (why != nullptr) {
    why->assign("conflict cycle: ");
    for (const std::uint32_t t : cycle) {
      util::Append(*why, "txn ", txns_[t].txn, " -> ");
    }
    util::Append(*why, "txn ", txns_[cycle.front()].txn);
  }
  return false;
}

bool History::NoLostUpdates(std::string* why) const {
  const std::vector<Install> installs = SortedInstalls(txns_);
  // Committed versions must be contiguous and unique per object. (The first
  // recorded write may be >1 only if warmup commits were not recorded; we
  // require contiguity from the first recorded version.)
  for (std::size_t i = 1; i < installs.size(); ++i) {
    const Install& prev = installs[i - 1];
    const Install& x = installs[i];
    if (x.obj != prev.obj || x.version == prev.version + 1) continue;
    if (why != nullptr) {
      why->clear();
      if (x.version == prev.version) {
        util::Append(*why, "object ", x.obj, ": version ", x.version,
                     " installed twice");
      } else {
        util::Append(*why, "object ", x.obj, ": version ", prev.version,
                     " then ", x.version);
      }
    }
    return false;
  }
  return true;
}

}  // namespace psoodb::core
