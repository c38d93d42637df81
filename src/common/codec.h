// Binary serialization for RPC payloads (data path, ZooKeeper, the
// memcache baseline), the ZooKeeper tree image, WAL records and snapshot
// frames.
//
// Little-endian fixed-width integers, varint-free (messages are tiny and
// simplicity beats a few bytes), u32-length-prefixed strings and vectors.
// There is one writer (codec::Writer) and one reader (codec::Reader), and
// nothing else in the program writes or parses bytes by hand. The reader
// is bounds-checked and reports kCorruption instead of crashing on
// truncated or malformed input — WAL tail records after a crash are
// expected to be torn.
//
// Records. Every wire and on-disk record states its layout once, as a
// field list that the size pass, the writer and the reader all walk:
//
//   struct PurgeVnodeRequest {
//     VnodeId vnode = kInvalidVnode;
//     NodeId new_owner = kInvalidNode;
//     template <typename M, typename IO>
//     static void wire(M& m, IO& io) { io(m.vnode, m.new_owner); }
//   };
//
// `M` is `const T` when writing and `T` when reading; `IO::kReading` tells
// the two apart where a record needs it (read-side validation, flags that
// are implied by a section's presence). codec::encode() runs the size pass
// and then writes into one exactly-sized allocation; codec::decode() fills
// a default-constructed record and fails with kCorruption on any truncated,
// malformed or out-of-range field. A field is a fixed-width integer, bool,
// enum, std::string, std::vector or std::pair of fields, or a nested
// record (any type with a `wire`).
//
// Enums are range-checked on read. Each wire enum declares its last valid
// enumerator once, with an ADL-visible `wire_last(E)` next to the enum —
// and `wire_first(E)` when it does not start at 0. That is a trait, not an
// extra enumerator, so switches over the enum stay -Wswitch-clean.
//
// Trailing sections: the one rule for extending a layout. State that only
// some messages carry (causal clocks and records, the auditor's staleness
// bound and lag rows, a recovery's source list) rides in trailing optional
// sections after the base layout. The writer emits a section only when it
// carries state; the reader reads it only when bytes remain. A message on
// the default path therefore keeps its exact base size — which matters
// beyond compatibility, because the simulated network charges delivery
// delay by payload size: one unconditional byte would shift every seeded
// run. `io.trailing()` is that rule; `io.sparse()` is its per-element form,
// an (index, value) section for the vector elements that carry state.
#pragma once

#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sedna {

namespace codec {

/// Default first valid enumerator; enums that start elsewhere declare
/// their own `wire_first(E)` beside `wire_last(E)`.
template <typename E>
constexpr E wire_first(E) {
  return E{};
}

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};
template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

/// Whether a sparse-section value differs from "nothing to send".
template <typename V>
bool carries_state(const V& v) {
  if constexpr (requires { v.empty(); }) {
    return !v.empty();
  } else {
    return v != V{};
  }
}

/// Byte sink of the size pass: counts what the write pass will store.
struct Counter {
  std::size_t bytes = 0;
  template <std::unsigned_integral T>
  void put_fixed(T) {
    bytes += sizeof(T);
  }
  void put_bytes_raw(std::string_view s) { bytes += s.size(); }
};

/// Byte sink of the write pass: stores into the buffer the size pass
/// measured. Both passes walk the same field list, so they agree.
class Filler {
 public:
  Filler(char* begin, char* end) : p_(begin), end_(end) {}

  template <std::unsigned_integral T>
  void put_fixed(T v) {
    assert(end_ - p_ >= static_cast<std::ptrdiff_t>(sizeof(T)));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p_[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    p_ += sizeof(T);
  }
  void put_bytes_raw(std::string_view s) {
    assert(end_ - p_ >= static_cast<std::ptrdiff_t>(s.size()));
    if (!s.empty()) std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }

 private:
  char* p_;
  [[maybe_unused]] char* end_;
};

/// Walks a record's field list into `Sink` (a Counter or a Filler).
template <typename Sink>
class Writer {
 public:
  static constexpr bool kReading = false;

  explicit Writer(Sink& sink) : sink_(sink) {}

  template <typename... F>
  void operator()(const F&... fields) {
    (put(fields), ...);
  }

  template <typename Fn>
  void trailing(bool carries, Fn&& section) {
    if (carries) section();
  }

  /// Trailing (index, value) pairs for the `items` whose `member` carries
  /// state; the whole section is left out when none does.
  template <typename E, typename V>
  void sparse(const std::vector<E>& items, V E::*member) {
    std::uint32_t count = 0;
    for (const E& e : items) count += carries_state(e.*member) ? 1 : 0;
    if (count == 0) return;
    put(count);
    for (std::uint32_t i = 0; i < items.size(); ++i) {
      if (!carries_state(items[i].*member)) continue;
      put(i);
      put(items[i].*member);
    }
  }

  /// A nested record behind a u32 length prefix, written in place.
  template <typename R>
  void framed(const R& rec) {
    Counter counter;
    Writer<Counter> sizer(counter);
    sizer.put(rec);
    put(static_cast<std::uint32_t>(counter.bytes));
    put(rec);
  }

  void fail() {}

  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      sink_.put_fixed(static_cast<std::uint8_t>(v ? 1 : 0));
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      sink_.put_fixed(static_cast<std::make_unsigned_t<T>>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      put(static_cast<std::uint32_t>(v.size()));
      sink_.put_bytes_raw(v);
    } else if constexpr (IsVector<T>::value) {
      put(static_cast<std::uint32_t>(v.size()));
      for (const auto& e : v) put(e);
    } else if constexpr (IsPair<T>::value) {
      put(v.first);
      put(v.second);
    } else {
      T::wire(v, *this);
    }
  }

 private:
  Sink& sink_;
};

/// Walks a record's field list out of a buffer, failing on truncated,
/// malformed or out-of-range input.
class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(std::string_view data) : data_(data) {}

  template <typename... F>
  void operator()(F&... fields) {
    (get(fields), ...);
  }

  template <typename Fn>
  void trailing(bool /*carries*/, Fn&& section) {
    if (!failed() && !exhausted()) section();
  }

  template <typename E, typename V>
  void sparse(std::vector<E>& items, V E::*member) {
    trailing(true, [&] {
      std::uint32_t count = 0;
      get(count);
      for (std::uint32_t k = 0; k < count && !failed(); ++k) {
        std::uint32_t i = 0;
        get(i);
        if (i >= items.size()) return fail();
        get(items[i].*member);
      }
    });
  }

  template <typename R>
  void framed(R& rec) {
    std::uint32_t n = 0;
    get(n);
    Reader inner(take(n));
    inner.get(rec);
    if (inner.failed()) fail();
  }

  void fail() { failed_ = true; }
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] bool exhausted() const { return pos_ >= data_.size(); }

  template <typename T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = get_fixed<std::uint8_t>() != 0;
    } else if constexpr (std::is_enum_v<T>) {
      using U = std::underlying_type_t<T>;
      U raw{};
      get(raw);
      if (raw < static_cast<U>(wire_first(T{})) ||
          raw > static_cast<U>(wire_last(T{}))) {
        return fail();
      }
      v = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(get_fixed<std::make_unsigned_t<T>>());
    } else if constexpr (std::is_same_v<T, std::string>) {
      // Built at its exact size, then moved in: assigning into the empty
      // string would round its capacity up to at least 30 bytes.
      v = std::string(take(get_fixed<std::uint32_t>()));
    } else if constexpr (IsVector<T>::value) {
      const std::uint32_t n = get_fixed<std::uint32_t>();
      // A corrupt count must not allocate: each element needs >= 1 byte.
      if (n > data_.size() - pos_) return fail();
      v.resize(n);
      for (auto& e : v) {
        if (failed()) break;
        get(e);
      }
    } else if constexpr (IsPair<T>::value) {
      get(v.first);
      get(v.second);
    } else {
      T::wire(v, *this);
    }
  }

 private:
  /// The next `n` bytes (empty, and the reader failed, if fewer remain).
  std::string_view take(std::size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return {};
    }
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  /// A little-endian integer; 0 once the reader has failed.
  template <std::unsigned_integral T>
  T get_fixed() {
    const char* p = take(sizeof(T)).data();
    if (failed_) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(p[i])) << (8 * i);
    }
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

template <typename T>
[[nodiscard]] std::string encode(const T& rec) {
  Counter counter;
  Writer<Counter> sizer(counter);
  sizer(rec);
  std::string out(counter.bytes, '\0');
  Filler filler(out.data(), out.data() + out.size());
  Writer<Filler> writer(filler);
  writer(rec);
  return out;
}

/// Decodes a whole buffer into a `T`; `what` names it in the error.
template <typename T>
[[nodiscard]] Result<T> decode(std::string_view bytes, const char* what) {
  Reader in(bytes);
  T rec;
  in.get(rec);
  if (in.failed()) return Status::Corruption(what);
  return rec;
}

}  // namespace codec
}  // namespace sedna
