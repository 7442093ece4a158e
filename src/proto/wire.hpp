// The byte layout shared by the wire codec (proto/codec.cpp) and the WAL
// (wal/wal_format.cpp), described once.
//
// A layout is a field list: a function template `fields(io, x)` that names
// each field of `x` in order, together with its charge. Three sinks run the
// same list:
//
//   Writer  appends the little-endian bytes and tallies the charged ones;
//   Reader  decodes defensively (truncation, implausible counts, kMaxDcs,
//           declared limits), never crashing or over-allocating on bad input;
//   Sizer   counts the charged bytes without writing them (wire_size()).
//
// Writer and Sizer traverse a const object and Reader a mutable one, so one
// template serves all three. The few steps that only make sense when decoding
// (sizing a container, re-interning a key) sit under `Io::kDecodes`.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "store/key_space.hpp"
#include "store/version.hpp"
#include "vclock/version_vector.hpp"

namespace pocc::proto::wire {

/// Whether a field counts toward wire_size(): protocol metadata (§V
/// accounting), or transport framing / measurement-only data that rides the
/// wire uncharged (see the charging rule in proto/messages.hpp).
enum Charge : bool { kFraming = false, kMeta = true };

/// `M` is `T`, possibly const: the argument type of a field list.
template <typename M, typename T>
concept Of = std::same_as<std::remove_const_t<M>, T>;

/// A count-prefixed sequence: the smallest encoding of one element (a decoded
/// count the remaining bytes cannot hold is corruption, not a reason to
/// allocate), its name for errors, and an optional hard limit on the count.
struct Seq {
  std::size_t min_bytes;
  const char* what;
  std::size_t max = std::numeric_limits<std::size_t>::max();
};

/// How an integer field travels: as its unsigned twin, a bool as one byte.
template <typename T>
using Unsigned = std::make_unsigned_t<std::conditional_t<
    std::is_same_v<T, bool>, std::uint8_t, T>>;

class Writer {
 public:
  static constexpr bool kDecodes = false;

  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  /// A fixed-width integer (bools travel as one 0/1 byte).
  template <typename T>
  void num(T v, Charge c) {
    static_assert(std::is_integral_v<T>);
    using U = Unsigned<T>;
    const auto u = static_cast<U>(v);
    std::uint8_t buf[sizeof(U)];
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      buf[i] = static_cast<std::uint8_t>(u >> (8 * i));
    }
    raw(buf, sizeof(U), c);
  }

  /// The bytes of `s`, whose length the field list already wrote. Byte
  /// strings (values, reasons, keys) are always protocol metadata.
  void chars(std::string_view s, std::size_t /*n*/, const char* /*what*/) {
    raw(s.data(), s.size(), kMeta);
  }

  [[nodiscard]] std::size_t charged() const { return charged_; }

 private:
  void raw(const void* p, std::size_t n, Charge c) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
    if (c == kMeta) charged_ += n;
  }

  std::vector<std::uint8_t>& out_;
  std::size_t charged_ = 0;
};

class Sizer {
 public:
  static constexpr bool kDecodes = false;

  template <typename T>
  void num(const T& /*v*/, Charge c) {
    static_assert(std::is_integral_v<T>);
    if (c == kMeta) charged_ += sizeof(Unsigned<T>);
  }

  void chars(std::string_view /*s*/, std::size_t n, const char* /*what*/) {
    charged_ += n;
  }

  [[nodiscard]] std::size_t charged() const { return charged_; }

 private:
  std::size_t charged_ = 0;
};

/// Defensive decoder over [p, p+n). The first failure is kept as `error()`;
/// every later read is a no-op, so a field list runs to its end on any input.
class Reader {
 public:
  static constexpr bool kDecodes = true;

  Reader(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }
  /// Raw read position (batch decoding carves sub-readers out of the body).
  [[nodiscard]] const std::uint8_t* cursor() const { return p_; }
  /// Advance past `n` bytes the caller consumed through a sub-reader.
  void skip(std::size_t n) {
    if (ok_ && need(n, "skipped bytes")) p_ += n;
  }

  void fail(std::string msg) {
    if (ok_) {
      ok_ = false;
      error_ = std::move(msg);
    }
  }

  template <typename T>
  void num(T& v, Charge /*c*/) {
    static_assert(std::is_integral_v<T>);
    using U = Unsigned<T>;
    if (!ok_ || !need(sizeof(U), "fixed field")) return;
    U u = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      u = static_cast<U>(u | (static_cast<U>(p_[i]) << (8 * i)));
    }
    p_ += sizeof(U);
    if constexpr (std::is_same_v<T, bool>) {
      v = u != 0;
    } else {
      v = static_cast<T>(u);
    }
  }

  void chars(std::string& s, std::size_t n, const char* what) {
    std::string_view view;
    chars(view, n, what);
    s.assign(view);
  }
  /// The view points into the input buffer.
  void chars(std::string_view& s, std::size_t n, const char* what) {
    if (!ok_ || !need(n, what)) return;
    s = std::string_view(reinterpret_cast<const char*>(p_), n);
    p_ += n;
  }

  /// Whether a decoded count `n` of `seq` elements is acceptable.
  bool admit(std::uint64_t n, const Seq& seq) {
    if (!ok_) return false;
    if (n > seq.max) {
      fail(std::string("more than ") + std::to_string(seq.max) + " " +
           seq.what + "s");
      return false;
    }
    if (n > remaining() / seq.min_bytes + 1) {
      fail(std::string("implausible ") + seq.what + " count");
      return false;
    }
    return true;
  }

 private:
  bool need(std::size_t n, const char* what) {
    if (remaining() >= n) return true;
    fail(std::string("truncated frame: ") + what);
    return false;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
  std::string error_;
};

// ------------------------------------------------------ shared field lists --

/// A byte string: u32 length, then the bytes. A decoded length above `max`
/// is refused.
template <typename Io, typename S>
void text(Io& io, S& s,
          std::uint32_t max = std::numeric_limits<std::uint32_t>::max()) {
  auto n = static_cast<std::uint32_t>(s.size());
  io.num(n, kMeta);
  if constexpr (Io::kDecodes) {
    if (n > max) {
      io.fail("string of " + std::to_string(n) + " bytes exceeds the " +
              std::to_string(max) + "-byte limit");
      return;
    }
  }
  io.chars(s, n, "string bytes");
}

/// A key crosses process boundaries as its original string (KeyIds are
/// per-process): u16 length, then the bytes. Decoding re-interns them into
/// this process's KeySpace.
template <typename Io, typename K>
void key(Io& io, K& k) {
  std::string_view name;
  if constexpr (!Io::kDecodes) {
    name = store::KeySpace::global().name(k);
    POCC_ASSERT_MSG(name.size() <= std::numeric_limits<std::uint16_t>::max(),
                    "key longer than the wire format's 64 KiB limit");
  }
  auto n = static_cast<std::uint16_t>(name.size());
  io.num(n, kMeta);
  io.chars(name, n, "key bytes");
  if constexpr (Io::kDecodes) {
    if (io.ok()) k = store::KeySpace::global().intern(name);
  }
}

/// A `Len`-count-prefixed sequence whose elements are laid out by `each`.
template <typename Len, typename Io, typename C, typename Each>
void list(Io& io, C& c, const Seq& seq, Each&& each) {
  auto n = static_cast<Len>(c.size());
  io.num(n, kMeta);
  if constexpr (Io::kDecodes) {
    if (!io.admit(n, seq)) return;
    c.reserve(n);
    for (Len i = 0; i < n && io.ok(); ++i) each(c.emplace_back());
  } else {
    for (auto& x : c) each(x);
  }
}

/// u8 entry count (0 = the default-constructed vector), then each entry.
template <typename Io, Of<VersionVector> V>
void fields(Io& io, V& v) {
  auto n = static_cast<std::uint8_t>(v.size());
  io.num(n, kMeta);
  if constexpr (Io::kDecodes) {
    if (n > kMaxDcs) {
      io.fail("version vector wider than kMaxDcs");
      return;
    }
    v = n == 0 ? VersionVector{} : VersionVector(n);
  }
  for (std::uint32_t i = 0; i < v.size(); ++i) io.num(v[i], kMeta);
}

template <typename Io, Of<NodeId> N>
void fields(Io& io, N& n) {
  io.num(n.dc, kMeta);
  io.num(n.part, kMeta);
}

/// d = <k, v, sr, ut, dv> plus the HA-POCC origin flag: the payload of
/// Replicate and RecoveryVersion, of the WAL's kVersion records and of every
/// snapshot entry.
template <typename Io, Of<store::Version> V>
void fields(Io& io, V& v) {
  key(io, v.key);
  text(io, v.value);
  io.num(v.sr, kMeta);
  io.num(v.ut, kMeta);
  fields(io, v.dv);
  io.num(v.opt_origin, kMeta);
}

}  // namespace pocc::proto::wire
