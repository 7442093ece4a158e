// Key interner: maps key strings to dense KeyIds (simulation-host
// optimization, see docs/DESIGN.md).
//
// Before interning, every simulated operation re-allocated, copied and
// re-hashed its std::string key at each hop of
//   workload -> client -> message -> server -> PartitionStore.
// The interner pays the string cost exactly once per unique key; every later
// hop carries a 4-byte KeyId. The original key bytes stay recorded per id, so
// wire-size accounting (§V metadata fairness) and partition placement are
// byte-for-byte identical to the uninterned system. Nothing protocol-visible
// changes: dependency/version vectors, timestamps and values are untouched.
//
// Concurrency: `intern` (and the string-keyed `find`) serialize on a mutex.
// Callers span threads freely — the workload/client boundary, the TCP
// transport passes (codec re-interning on decode) and every rt::NodeGroup
// worker. Per-id lookups (`name`, `hash_of`, `partition`) are lock-free:
// entries live in fixed-size chunks whose pointers are published with
// release semantics before the entry count is (release-)advanced, so any
// thread that obtained an id — through a queue, a lock, or directly from
// intern() — observes the fully-constructed entry. Stressed under TSan by
// tests/store_concurrency_test.cpp.
//
// Memory: an interner costs what it interned. Chunks are raw storage whose
// entries are constructed one by one as keys are interned (and only those
// are destroyed), and the chunk table comes zeroed from calloc, so neither
// is touched — nor resident — beyond the pages the interned keys use.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace pocc::store {

class KeySpace {
 public:
  KeySpace();
  ~KeySpace();

  KeySpace(const KeySpace&) = delete;
  KeySpace& operator=(const KeySpace&) = delete;

  /// Id for `key`, interning it first if unseen. Idempotent: the same string
  /// always yields the same id. Ids are dense: 0, 1, 2, ... — id 0 is always
  /// the empty key (pre-interned), so zero-initialized KeyId fields are valid.
  KeyId intern(std::string_view key);

  /// Intern the canonical workload key "<partition>:<rank>" without building
  /// a std::string (hot path of the workload generators).
  KeyId intern_partition_key(PartitionId part, std::uint64_t rank);

  /// Id for `key` if already interned, kInvalidKeyId otherwise.
  [[nodiscard]] KeyId find(std::string_view key) const;

  /// Original key bytes for `id`. The view stays valid for the interner's
  /// lifetime (entries are never moved or freed).
  [[nodiscard]] std::string_view name(KeyId id) const {
    return entry(id).key;
  }

  /// Byte length of the original key (wire-size accounting).
  [[nodiscard]] std::size_t name_size(KeyId id) const {
    return entry(id).key.size();
  }

  /// FNV-1a hash of the original key bytes, computed once at intern time.
  [[nodiscard]] std::uint64_t hash_of(KeyId id) const { return entry(id).hash; }

  /// Partition placement for `id` — identical to
  /// partition_of(name(id), partitions, scheme) but O(1): the decimal
  /// "<partition>:" prefix and the hash are parsed/computed at intern time.
  [[nodiscard]] PartitionId partition(KeyId id, std::uint32_t partitions,
                                      PartitionScheme scheme) const {
    const Entry& e = entry(id);
    if (scheme == PartitionScheme::kPrefix && e.prefix_part != kNoPrefix) {
      return static_cast<PartitionId>(e.prefix_part % partitions);
    }
    return static_cast<PartitionId>(e.hash % partitions);
  }

  /// Number of interned keys.
  [[nodiscard]] std::size_t size() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Process-wide interner shared by every host (simulator and runtime).
  static KeySpace& global();

 private:
  struct Entry {
    std::string key;
    std::uint64_t hash = 0;
    // Parsed "<part>:" prefix. 64-bit so the sentinel cannot collide with a
    // legitimate 32-bit prefix value.
    std::uint64_t prefix_part = kNoPrefix;
  };

  static constexpr std::uint64_t kNoPrefix = ~std::uint64_t{0};
  static constexpr std::size_t kChunkShift = 16;  // 65536 entries per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kMaxChunks = 1 << 15;  // ~2.1B keys

  /// Chunk `c`'s published pointer (null until its first key is interned).
  [[nodiscard]] Entry* chunk(std::size_t c, std::memory_order order) const {
    return std::atomic_ref<Entry*>(chunks_[c]).load(order);
  }
  [[nodiscard]] const Entry& entry(KeyId id) const;
  KeyId insert_locked(std::string_view key, std::uint64_t hash);
  void rehash_locked(std::size_t buckets);

  mutable std::mutex mu_;
  // Open-addressing id lookup (guarded by mu_): bucket holds id + 1, 0 empty.
  std::vector<std::uint32_t> table_;
  std::size_t mask_ = 0;
  std::atomic<std::size_t> count_{0};
  /// kMaxChunks chunk pointers from calloc, read and published through
  /// std::atomic_ref.
  Entry** chunks_ = nullptr;
};

/// Shorthand for interning against the global KeySpace (tests, examples).
inline KeyId intern_key(std::string_view key) {
  return KeySpace::global().intern(key);
}

/// Original key bytes of `id` as an owned string (diagnostics, test output).
inline std::string key_name(KeyId id) {
  return std::string(KeySpace::global().name(id));
}

}  // namespace pocc::store
