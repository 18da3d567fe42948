// Model-checking tests for storage::LruCache (storage/lru_cache.h): seeded
// random sequences of Insert / Get / Peek / Pin / Unpin / Remove run in
// lockstep against a reference built like the cache it replaced (a
// std::list in recency order plus a std::unordered_map of list iterators).
// The caches run full, with pinned entries, so eviction has to skip pins;
// after every step the size, the pins, each evicted (key, value) and the
// whole MRU-to-LRU ForEach sequence must match. Values are vectors, so a
// recycled slot that kept its previous occupant's value shows up.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "storage/lru_cache.h"

namespace psoodb::storage {
namespace {

using Value = std::vector<int>;

/// The list + hash-map LRU the slab-backed cache replaced.
template <typename K>
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  std::size_t size() const { return map_.size(); }

  Value* Get(K k) {
    auto it = map_.find(k);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  Value* Peek(K k) {
    auto it = map_.find(k);
    return it == map_.end() ? nullptr : &it->second->value;
  }

  /// Returns (value, inserted); `*evicted` receives the victim, if any.
  std::pair<Value*, bool> Insert(K k,
                                 std::optional<std::pair<K, Value>>* evicted) {
    if (auto it = map_.find(k); it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return {&it->second->value, false};
    }
    if (map_.size() >= capacity_) {
      for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        if (it->pins == 0) {
          auto node = std::next(it).base();
          evicted->emplace(node->key, std::move(node->value));
          map_.erase(node->key);
          lru_.erase(node);
          break;
        }
      }
    }
    lru_.push_front(Node{k, Value{}, 0});
    map_[k] = lru_.begin();
    return {&lru_.begin()->value, true};
  }

  std::optional<Value> Remove(K k) {
    auto it = map_.find(k);
    if (it == map_.end()) return std::nullopt;
    std::optional<Value> v(std::move(it->second->value));
    lru_.erase(it->second);
    map_.erase(it);
    return v;
  }

  void Pin(K k) { ++map_.at(k)->pins; }
  void Unpin(K k) { --map_.at(k)->pins; }
  int pins(K k) const {
    auto it = map_.find(k);
    return it == map_.end() ? 0 : static_cast<int>(it->second->pins);
  }

  std::vector<std::pair<K, Value>> Order() const {
    std::vector<std::pair<K, Value>> out;
    for (const Node& n : lru_) out.emplace_back(n.key, n.value);
    return out;
  }

 private:
  struct Node {
    K key;
    Value value;
    unsigned pins;
  };
  std::size_t capacity_;
  std::list<Node> lru_;
  std::unordered_map<K, typename std::list<Node>::iterator> map_;
};

template <typename K>
std::vector<std::pair<K, Value>> Order(const LruCache<K, Value>& cache) {
  std::vector<std::pair<K, Value>> out;
  cache.ForEach([&out](K k, const Value& v) { out.emplace_back(k, v); });
  return out;
}

template <typename K>
void Round(std::uint64_t seed, std::size_t capacity, int ops) {
  LruCache<K, Value> cache(capacity);
  ReferenceLru<K> ref(capacity);
  sim::Rng rng(seed);
  // Three keys per slot: most inserts miss, and a full cache evicts.
  const std::int64_t keys = static_cast<std::int64_t>(capacity) * 3;
  std::size_t pinned_keys = 0;  // keys with pins > 0
  std::size_t evictions = 0;
  int next_value = 1;
  for (int op = 0; op < ops; ++op) {
    const K k = static_cast<K>(rng.UniformInt(0, keys - 1) * 7 - keys);
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      std::optional<std::pair<K, Value>> want_evicted;
      const auto [want, want_inserted] = ref.Insert(k, &want_evicted);
      auto got = cache.Insert(k);
      ASSERT_EQ(got.inserted, want_inserted);
      ASSERT_EQ(got.evicted, want_evicted);
      if (got.evicted) ++evictions;
      if (got.inserted) {
        ASSERT_TRUE(got.value->empty()) << "a new entry must start default";
        got.value->push_back(next_value);
        want->push_back(next_value);
        ++next_value;
      }
      ASSERT_EQ(*got.value, *want);
    } else if (dice < 0.65) {
      Value* want = ref.Get(k);
      Value* got = cache.Get(k);
      ASSERT_EQ(got != nullptr, want != nullptr);
      if (got != nullptr) {
        ASSERT_EQ(*got, *want);
        got->push_back(next_value);  // a write through the returned pointer
        want->push_back(next_value);
        ++next_value;
      }
    } else if (dice < 0.72) {
      Value* want = ref.Peek(k);
      Value* got = cache.Peek(k);
      ASSERT_EQ(got != nullptr, want != nullptr);
      if (got != nullptr) {
        ASSERT_EQ(*got, *want);
      }
      ASSERT_EQ(cache.Contains(k), want != nullptr);
    } else if (dice < 0.82) {
      // Pin cached keys while at least one entry stays unpinned.
      if (ref.Peek(k) == nullptr) continue;
      if (ref.pins(k) == 0 && pinned_keys + 1 >= capacity) continue;
      if (ref.pins(k) == 0) ++pinned_keys;
      ref.Pin(k);
      cache.Pin(k);
    } else if (dice < 0.92) {
      if (ref.pins(k) == 0) continue;
      ref.Unpin(k);
      cache.Unpin(k);
      if (ref.pins(k) == 0) --pinned_keys;
    } else {
      if (ref.pins(k) != 0) continue;
      ASSERT_EQ(cache.Remove(k), ref.Remove(k));
    }
    ASSERT_EQ(cache.size(), ref.size());
    ASSERT_EQ(Order(cache), ref.Order()) << "after op " << op;
    for (const auto& [key, v] : ref.Order()) {
      ASSERT_EQ(cache.pins(key), ref.pins(key)) << "key " << key;
    }
  }
  EXPECT_GT(evictions, 0u) << "the round never filled the cache";
}

TEST(LruCacheModelCheck, RandomSequencesMatchListAndMap) {
  // Capacities below, at and across the slab's first chunk sizes.
  const std::size_t capacities[] = {1, 2, 7, 8, 9, 24, 41};
  std::uint64_t seed = 1;
  for (std::size_t cap : capacities) {
    for (int r = 0; r < 3; ++r, ++seed) {
      Round<std::int32_t>(seed, cap, 800);
      Round<std::int64_t>(seed + 1000, cap, 800);
    }
  }
}

TEST(LruCache, ValuePointerSurvivesGrowth) {
  // The slab adds chunks as the cache grows; an entry that is neither
  // evicted nor removed keeps its address (callers hold PageFrame*).
  LruCache<std::int32_t, Value> cache(1000);
  Value* first = cache.Insert(-5).value;
  first->assign({1, 2, 3});
  cache.Pin(-5);
  for (std::int32_t k = 0; k < 900; ++k) cache.Insert(k).value->push_back(k);
  EXPECT_EQ(cache.Peek(-5), first);
  EXPECT_EQ(*first, (Value{1, 2, 3}));
  cache.Unpin(-5);
  EXPECT_EQ(cache.Get(-5), first);
  EXPECT_EQ(cache.size(), 901u);
}

TEST(LruCache, EvictionSkipsPinnedAndRecyclesTheSlot) {
  LruCache<std::int64_t, Value> cache(3);
  for (std::int64_t k = 1; k <= 3; ++k) cache.Insert(k).value->push_back(1);
  cache.Pin(1);  // the LRU entry
  auto r = cache.Insert(4);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(r.evicted->first, 2);  // the LRU unpinned entry
  EXPECT_TRUE(r.value->empty());   // the recycled slot starts default
  std::vector<std::int64_t> order;
  cache.ForEach([&order](std::int64_t k, const Value&) { order.push_back(k); });
  EXPECT_EQ(order, (std::vector<std::int64_t>{4, 3, 1}));
  cache.Unpin(1);
}

}  // namespace
}  // namespace psoodb::storage
