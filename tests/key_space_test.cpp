// KeySpace interner: dense idempotent ids, by-id round trips, partition
// placement parity with the string-hashing path, the empty-key-zero
// invariant that keeps default-constructed messages valid, and an interner
// whose memory is what it interned.
#include "store/key_space.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"

namespace pocc::store {
namespace {

TEST(KeySpace, EmptyKeyIsAlwaysIdZero) {
  EXPECT_EQ(KeySpace::global().intern(""), 0u);
  EXPECT_EQ(KeySpace::global().name(0), "");
  EXPECT_EQ(KeySpace::global().name_size(0), 0u);
}

TEST(KeySpace, InternIsIdempotent) {
  const KeyId a = intern_key("ks-idem");
  const KeyId b = intern_key("ks-idem");
  EXPECT_EQ(a, b);
  EXPECT_EQ(intern_key(std::string("ks-idem")), a);
}

TEST(KeySpace, IdsAreDense) {
  // Fresh keys get consecutive ids starting at the current size.
  const std::size_t base = KeySpace::global().size();
  const KeyId a = intern_key("ks-dense-a");
  const KeyId b = intern_key("ks-dense-b");
  const KeyId c = intern_key("ks-dense-c");
  EXPECT_EQ(a, base);
  EXPECT_EQ(b, base + 1);
  EXPECT_EQ(c, base + 2);
  EXPECT_EQ(KeySpace::global().size(), base + 3);
}

TEST(KeySpace, NameRoundTrip) {
  const std::string original = "42:12345678901234567890";
  const KeyId id = intern_key(original);
  EXPECT_EQ(KeySpace::global().name(id), original);
  EXPECT_EQ(KeySpace::global().name_size(id), original.size());
  EXPECT_EQ(key_name(id), original);
}

TEST(KeySpace, FindReturnsInvalidForUnknown) {
  EXPECT_EQ(KeySpace::global().find("ks-never-interned-key-xyzzy"),
            kInvalidKeyId);
  const KeyId id = intern_key("ks-find-me");
  EXPECT_EQ(KeySpace::global().find("ks-find-me"), id);
}

TEST(KeySpace, HashMatchesFnv1a) {
  const KeyId id = intern_key("ks-hash-probe");
  EXPECT_EQ(KeySpace::global().hash_of(id), fnv1a("ks-hash-probe"));
}

TEST(KeySpace, InternPartitionKeyMatchesStringForm) {
  const KeyId a = KeySpace::global().intern_partition_key(17, 987654321);
  const KeyId b = intern_key("17:987654321");
  EXPECT_EQ(a, b);
  EXPECT_EQ(KeySpace::global().name(a), "17:987654321");
}

TEST(KeySpace, PartitionPlacementMatchesStringPath) {
  // partition(id) must agree with partition_of(name) for both schemes,
  // including non-canonical keys (no prefix, junk prefix).
  const std::vector<std::string> keys = {
      "3:77",  "0:0",     "31:999999", "no-prefix-key", ":leading-colon",
      "x7:zz", "123abc:q", "9",        "ks partition spaces",
      // Largest valid u32 prefix: must not collide with the interner's
      // no-prefix sentinel.
      "4294967295:x"};
  for (const std::string& k : keys) {
    const KeyId id = intern_key(k);
    for (std::uint32_t parts : {1u, 4u, 32u, 64u}) {
      EXPECT_EQ(KeySpace::global().partition(id, parts, PartitionScheme::kHash),
                partition_of(k, parts, PartitionScheme::kHash))
          << k << " / " << parts;
      EXPECT_EQ(
          KeySpace::global().partition(id, parts, PartitionScheme::kPrefix),
          partition_of(k, parts, PartitionScheme::kPrefix))
          << k << " / " << parts;
    }
  }
}

TEST(KeySpace, SurvivesTableGrowth) {
  // Push through several rehash cycles; earlier ids must stay valid.
  const KeyId first = intern_key("ks-grow-first");
  std::vector<KeyId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(intern_key("ks-grow-" + std::to_string(i)));
  }
  EXPECT_EQ(KeySpace::global().name(first), "ks-grow-first");
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(intern_key("ks-grow-" + std::to_string(i)), ids[i]);
  }
}

/// RssAnon of this process in kB (-1 when /proc/self/status lacks it).
long rss_anon_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "RssAnon:", 8) == 0) {
      kb = std::strtol(line + 8, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

TEST(KeySpace, FreshInternerTouchesOnlyWhatItInterns) {
  // A chunk holds 65,536 entries and the chunk table 32,768 pointers; an
  // interner that constructed them all would carry ~3.3 MB for 10 keys.
  // Destroying it must destroy exactly the interned entries: a destructor
  // run on never-constructed storage frees a wild pointer (ASan job).
  const long before = rss_anon_kb();
  if (before < 0) GTEST_SKIP() << "no RssAnon in /proc/self/status";
  auto ks = std::make_unique<KeySpace>();
  std::vector<KeyId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(ks->intern("ks-fresh-" + std::to_string(i)));
  }
  const long grown = rss_anon_kb() - before;
  EXPECT_LT(grown, 1024) << "RssAnon grew " << grown << " kB for 10 keys";
  EXPECT_EQ(ks->size(), 11u);  // the empty key, then ours
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ks->name(ids[static_cast<std::size_t>(i)]),
              "ks-fresh-" + std::to_string(i));
  }
  ks.reset();
}

TEST(KeySpace, ConcurrentInternIsConsistent) {
  // The threaded runtime interns from several session threads; the same key
  // must resolve to one id everywhere.
  constexpr int kThreads = 4;
  constexpr int kKeys = 500;
  std::vector<std::vector<KeyId>> seen(kThreads, std::vector<KeyId>(kKeys));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] {
      for (int i = 0; i < kKeys; ++i) {
        seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
            intern_key("ks-conc-" + std::to_string(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]) << "thread " << t;
  }
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(key_name(seen[0][static_cast<std::size_t>(i)]),
              "ks-conc-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace pocc::store
