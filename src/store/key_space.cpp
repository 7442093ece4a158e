#include "store/key_space.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <memory>
#include <new>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace pocc::store {

KeySpace::KeySpace()
    : chunks_(static_cast<Entry**>(std::calloc(kMaxChunks, sizeof(Entry*)))) {
  POCC_ASSERT(chunks_ != nullptr);
  // Id 0 is always the empty key, so default-constructed messages and
  // versions (key = 0) are valid and charge zero key bytes on the wire.
  intern(std::string_view{});
}

KeySpace::~KeySpace() {
  const std::size_t n = count_.load(std::memory_order_acquire);
  for (std::size_t c = 0; c * kChunkSize < n; ++c) {
    Entry* entries = chunk(c, std::memory_order_relaxed);
    std::destroy_n(entries, std::min(kChunkSize, n - c * kChunkSize));
    ::operator delete(entries);
  }
  std::free(chunks_);
}

const KeySpace::Entry& KeySpace::entry(KeyId id) const {
  POCC_ASSERT_MSG(id < count_.load(std::memory_order_acquire),
                  "KeyId was never interned");
  return chunk(id >> kChunkShift,
               std::memory_order_acquire)[id & (kChunkSize - 1)];
}

void KeySpace::rehash_locked(std::size_t buckets) {
  table_.assign(buckets, 0);
  mask_ = buckets - 1;
  const std::size_t n = count_.load(std::memory_order_relaxed);
  for (std::size_t id = 0; id < n; ++id) {
    const Entry& e = chunk(id >> kChunkShift,
                           std::memory_order_relaxed)[id & (kChunkSize - 1)];
    std::size_t i = e.hash & mask_;
    while (table_[i] != 0) i = (i + 1) & mask_;
    table_[i] = static_cast<std::uint32_t>(id) + 1;
  }
}

KeyId KeySpace::insert_locked(std::string_view key, std::uint64_t h) {
  const std::size_t n = count_.load(std::memory_order_relaxed);
  // Grow at ~70% load (or on first use).
  if (table_.empty() || (n + 1) * 10 >= table_.size() * 7) {
    rehash_locked(table_.empty() ? 1024 : table_.size() * 2);
  }
  std::size_t i = h & mask_;
  while (table_[i] != 0) {
    const KeyId id = table_[i] - 1;
    const Entry& e = chunk(id >> kChunkShift,
                           std::memory_order_relaxed)[id & (kChunkSize - 1)];
    if (e.hash == h && e.key == key) return id;  // idempotent intern
    i = (i + 1) & mask_;
  }
  POCC_ASSERT_MSG(n < kMaxChunks * kChunkSize, "key space exhausted");
  const std::size_t chunk_idx = n >> kChunkShift;
  Entry* entries = chunk(chunk_idx, std::memory_order_relaxed);
  if (entries == nullptr) {
    // Raw storage: an entry's pages are touched when it is interned.
    entries = static_cast<Entry*>(::operator new(kChunkSize * sizeof(Entry)));
    std::atomic_ref<Entry*>(chunks_[chunk_idx])
        .store(entries, std::memory_order_release);
  }
  std::uint32_t prefix = 0;
  ::new (entries + (n & (kChunkSize - 1))) Entry{
      std::string(key), h,
      parse_partition_prefix(key, &prefix) ? prefix : kNoPrefix};
  table_[i] = static_cast<std::uint32_t>(n) + 1;
  count_.store(n + 1, std::memory_order_release);
  return static_cast<KeyId>(n);
}

KeyId KeySpace::intern(std::string_view key) {
  const std::uint64_t h = fnv1a(key);
  std::lock_guard lk(mu_);
  return insert_locked(key, h);
}

KeyId KeySpace::intern_partition_key(PartitionId part, std::uint64_t rank) {
  // to_chars, not snprintf: this runs once per generated workload operation.
  char buf[48];
  auto [colon, ec1] = std::to_chars(buf, buf + sizeof(buf), part);
  POCC_ASSERT(ec1 == std::errc{});
  *colon = ':';
  auto [end, ec2] = std::to_chars(colon + 1, buf + sizeof(buf), rank);
  POCC_ASSERT(ec2 == std::errc{});
  return intern(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

KeyId KeySpace::find(std::string_view key) const {
  const std::uint64_t h = fnv1a(key);
  std::lock_guard lk(mu_);
  if (table_.empty()) return kInvalidKeyId;
  std::size_t i = h & mask_;
  while (table_[i] != 0) {
    const KeyId id = table_[i] - 1;
    const Entry& e = chunk(id >> kChunkShift,
                           std::memory_order_relaxed)[id & (kChunkSize - 1)];
    if (e.hash == h && e.key == key) return id;
    i = (i + 1) & mask_;
  }
  return kInvalidKeyId;
}

KeySpace& KeySpace::global() {
  static KeySpace instance;
  return instance;
}

}  // namespace pocc::store
