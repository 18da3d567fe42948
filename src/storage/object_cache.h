/// \file object_cache.h
/// Object-granularity cache frames, used by object-server (OS) clients whose
/// buffer is an LRU cache of individual objects rather than pages
/// (Section 4.1: capacity = ClientBufSize pages x ObjectsPerPage objects).

#ifndef PSOODB_STORAGE_OBJECT_CACHE_H_
#define PSOODB_STORAGE_OBJECT_CACHE_H_

#include "storage/lru_cache.h"
#include "storage/types.h"

namespace psoodb::storage {

/// One cached object copy. Whether the active transaction updated it is
/// the client's footprint's business (cc::LocalTxnLocks), not the frame's.
struct ObjectFrame {
  /// Version held (correctness checking only).
  Version version = 0;
};

/// An LRU cache of object copies.
using ObjectCache = LruCache<ObjectId, ObjectFrame>;

}  // namespace psoodb::storage

#endif  // PSOODB_STORAGE_OBJECT_CACHE_H_
