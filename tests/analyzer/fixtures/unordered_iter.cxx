// Fixture: unordered-iter. Iteration order over unordered containers is
// stdlib-specific, so results that flow from such loops are a determinism
// hazard. Name-based; never compiled.

std::unordered_map<int, int> table;
std::unordered_map<int, std::unordered_map<int, int>> nested;
std::map<int, int> ordered;
std::vector<int> vec;

struct Acc {
  const std::unordered_set<int>& items() const;
};

int SumDirect() {
  int s = 0;
  for (const auto& [k, v] : table) {  // EXPECT: unordered-iter
    s += k + v;
  }
  for (const auto& [k, v] : ordered) {  // FP-GUARD: unordered-iter
    s += k + v;
  }
  return s;
}

int SumInner(int key) {
  int s = 0;
  auto it = nested.find(key);
  for (const auto& [k, v] : it->second) {  // EXPECT: unordered-iter
    s += v;
  }
  return s;
}

int SumBindings() {
  int s = 0;
  for (auto& [k, inner] : nested) {  // EXPECT: unordered-iter
    for (auto& [k2, v] : inner) {  // EXPECT: unordered-iter
      s += v;
    }
  }
  return s;
}

int SumAccessor(const Acc& acc) {
  int s = 0;
  for (int v : acc.items()) {  // EXPECT: unordered-iter
    s += v;
  }
  return s;
}

int SumIterLoop() {
  int s = 0;
  for (auto it = table.begin(); it != table.end(); ++it) {  // EXPECT: unordered-iter
    s += it->second;
  }
  return s;
}

// FP guards: ordered containers, strings, comments.
int Guards() {
  int s = 0;
  for (int x : vec) s += x;
  // for (auto& [k, v] : table) { }
  const char* doc = "for (auto& [k, v] : table) {}";
  s += doc != nullptr ? 1 : 0;
  return s;
}

// FP guard: dependent iteration over a template parameter stays silent.
template <typename C>
int SumTemplate(const C& c) {
  int s = 0;
  for (const auto& x : c) s += x;
  return s;
}

// FP guard: a vector PARAMETER named like the unordered global above shadows
// it — the global, name-based index must not leak across scopes.
int SumParamShadow(const std::vector<std::pair<int, int>>& table) {
  int s = 0;
  for (const auto& [k, v] : table) s += k + v;
  return s;
}

// FP guard: ditto for a local declaration with a visibly ordered type.
int SumLocalShadow() {
  std::vector<std::pair<int, int>> nested;
  int s = 0;
  for (const auto& [k, v] : nested) s += v;
  return s;
}

// TP: an unordered-typed parameter is NOT shadowed.
int SumUnorderedParam(const std::unordered_set<int>& extras) {
  int s = 0;
  for (int v : extras) s += v;  // EXPECT: unordered-iter
  return s;
}

// util::FlatSet / FlatMap (src/util/flat_set.h) iterate in slot order, which
// depends on the hash and the insertion history: the same hazard.
util::FlatSet<long> footprint;

long SumFlatSet() {
  long s = 0;
  for (long v : footprint) {  // EXPECT: unordered-iter
    s += v;
  }
  return s;
}

// FP guard: probing a FlatSet from inside an ordered loop is order-free.
long CountFlatHits() {
  long s = 0;
  for (int x : vec) {  // FP-GUARD: unordered-iter
    s += static_cast<long>(footprint.count(x));
  }
  return s;
}

// Flat tables held in struct members (a lock table's slot index) iterate in
// slot order too; the member is found by its declared name through any
// access chain.
struct LockTable {
  util::FlatMap<int, unsigned> index;
  std::vector<int> order;
};
LockTable locks;
LockTable tables[2];

int SumMemberIndex() {
  int s = 0;
  for (const auto& [k, slot] : locks.index) {  // EXPECT: unordered-iter
    s += k;
  }
  for (const auto& [k, slot] : tables[1].index) {  // EXPECT: unordered-iter
    s += k;
  }
  for (int v : locks.order) {  // FP-GUARD: unordered-iter
    s += v;
  }
  return s;
}

// A name bound to a set inside a slab element, or a pointer to a set, is
// that set. (util::Slab itself has no iteration.)
struct Held {
  util::FlatSet<long> pages;
  std::vector<long> sorted;
};
util::Slab<Held> held;

long SumBoundSet(unsigned slot) {
  long s = 0;
  const auto& pages = held[slot].pages;
  for (long p : pages) {  // EXPECT: unordered-iter
    s += p;
  }
  const auto* fp = &footprint;
  for (long p : *fp) {  // EXPECT: unordered-iter
    s += p;
  }
  const auto& sorted = held[slot].sorted;
  for (long p : sorted) {  // FP-GUARD: unordered-iter
    s += p;
  }
  return s;
}

// A client's footprint table (src/cc/local_locks.h) is reached through an
// accessor returning the FlatMap itself, so loops over it stay visible.
struct Footprint {
  unsigned long read;
  unsigned long written;
};
struct TxnLocks {
  const util::FlatMap<int, Footprint>& footprint() const;
  bool UsesPage(int page) const;
};

int CountReadPages(const TxnLocks& locks) {
  int n = 0;
  for (const auto& [page, fp] : locks.footprint()) {  // EXPECT: unordered-iter
    if (fp.read != 0) ++n;
  }
  for (int page : vec) {  // FP-GUARD: unordered-iter
    if (locks.UsesPage(page)) ++n;
  }
  return n;
}
