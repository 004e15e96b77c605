// Binary wire format primitives.
//
// Rivulet uses a custom compact serialization (the paper's prototype does
// the same on top of Netty). Everything on the wire is little-endian and
// fixed width. Network-overhead results (Fig 5) are measured from the byte
// counts these encoders produce, so sizes here are part of the model:
//   u8/u16/u32/u64  — exact width
//   ids             — see types.hpp for widths
//   TimePoint       — 8 bytes (microsecond ticks)
//   bytes           — u32 length prefix + payload
// A fixed-width field is written and read whole: one capacity or bounds
// check and one copy in host order, which the static_assert below pins to
// little-endian.
//
// Below the two classes, the symmetric field I/O that snapshot state
// (DESIGN.md §16) is written in: each component lists its fields once,
// in one function template that capture instantiates with BinaryWriter
// and restore with BinaryReader. At the end, the recycled frame buffers
// and the frame codec (DESIGN.md §9).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/pid_set.hpp"
#include "common/rng.hpp"
#include "common/seq_set.hpp"
#include "common/time.hpp"
#include "common/types.hpp"

namespace riv {

static_assert(std::endian::native == std::endian::little,
              "the codec copies fixed-width fields in host order; a "
              "big-endian host needs a byte swap in put() and get()");

class BinaryWriter {
 public:
  static constexpr bool kReads = false;

  BinaryWriter() = default;
  // Reuse an existing buffer's capacity: contents are discarded, the
  // allocation is kept. Hot capture paths (warm-fleet snapshots) encode
  // into the same scratch repeatedly instead of reallocating per home.
  explicit BinaryWriter(std::vector<std::byte>&& reuse)
      : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);

  void process_id(ProcessId p) { u16(p.value); }
  void sensor_id(SensorId s) { u16(s.value); }
  void actuator_id(ActuatorId a) { u16(a.value); }
  void app_id(AppId a) { u16(a.value); }
  void event_id(EventId e) {
    sensor_id(e.sensor);
    u32(e.seq);
  }
  void command_id(CommandId c) {
    process_id(c.origin);
    u32(c.seq);
  }
  void provenance_id(ProvenanceId p) {
    u16(p.origin);
    u32(p.seq);
  }
  void time_point(TimePoint t) { i64(t.us); }
  void duration(Duration d) { i64(d.us); }

  void bytes(const std::vector<std::byte>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }

  // Reserve `n` opaque payload bytes without materializing content. Large
  // simulated events (e.g. 20 KB camera frames) use this: the bytes count
  // toward the frame size but carry no information.
  void opaque(std::size_t n) { buf_.resize(buf_.size() + n); }

  // Encoders that know their message size up front reserve it exactly, so
  // the buffer grows once instead of doubling through the encode.
  void reserve(std::size_t n) { buf_.reserve(n); }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::byte>& data() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  template <class T>
  void put(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof v);
    std::memcpy(buf_.data() + at, &v, sizeof v);
  }

  std::vector<std::byte> buf_;
};

// Bounds-checked reader over an encoded buffer. Any out-of-bounds read sets
// the error flag and subsequent reads return zero values; callers check
// ok() once after reading a whole message. A wire frame's decode (below)
// returns false then, and its receiver drops the frame.
class BinaryReader {
 public:
  static constexpr bool kReads = true;

  explicit BinaryReader(const std::vector<std::byte>& buf) : buf_(buf) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();

  ProcessId process_id() { return {u16()}; }
  SensorId sensor_id() { return {u16()}; }
  ActuatorId actuator_id() { return {u16()}; }
  AppId app_id() { return {u16()}; }
  EventId event_id() {
    EventId e;
    e.sensor = sensor_id();
    e.seq = u32();
    return e;
  }
  CommandId command_id() {
    CommandId c;
    c.origin = process_id();
    c.seq = u32();
    return c;
  }
  ProvenanceId provenance_id() {
    ProvenanceId p;
    p.origin = u16();
    p.seq = u32();
    return p;
  }
  TimePoint time_point() { return {i64()}; }
  Duration duration() { return {i64()}; }

  std::vector<std::byte> bytes() {
    std::vector<std::byte> out;
    bytes(out);
    return out;
  }
  // The same into `out`, reusing its capacity.
  void bytes(std::vector<std::byte>& out) {
    out.clear();
    std::uint32_t n = u32();
    if (!ensure(n)) return;
    out.assign(buf_.begin() + static_cast<long>(pos_),
               buf_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
  }
  std::string str() {
    std::uint32_t n = u32();
    if (!ensure(n)) return {};
    std::string out(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return out;
  }
  void skip_opaque(std::size_t n) {
    if (ensure(n)) pos_ += n;
  }

  bool ok() const { return ok_; }
  // Mark the input malformed: later reads return zero values.
  void fail() { ok_ = false; }
  bool at_end() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  bool ensure(std::size_t n) {
    if (n > buf_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }
  // A whole field, or 0 with the reader failed when fewer bytes are left.
  template <class T>
  T get() {
    T v{};
    if (!ensure(sizeof v)) return v;
    std::memcpy(&v, buf_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  const std::vector<std::byte>& buf_;
  std::size_t pos_{0};
  bool ok_{true};
};

// --- Symmetric field I/O ---------------------------------------------------
// A component's snapshot state is one function template
//   template <class A, class Self> static void io_state(A& a, Self& s);
// that names each field once, as io(a, s.field). Capture calls it with a
// BinaryWriter and a const Self, restore with a BinaryReader and the
// target, so the two sides cannot disagree on order or width. Work that
// only restore does (rebuilt indexes, re-created closures) sits in
// `if constexpr (A::kReads)` branches. The layouts are the primitives'
// above: bool as one byte, fixed-width ints, ids, times, u32-prefixed
// strings and byte vectors; containers as a u64 count and their elements.

template <class A>
concept Archive =
    std::is_same_v<A, BinaryWriter> || std::is_same_v<A, BinaryReader>;

#define RIV_CODEC_IO(T, method)                                 \
  inline void io(BinaryWriter& w, const T& v) { w.method(v); } \
  inline void io(BinaryReader& r, T& v) { v = r.method(); }
RIV_CODEC_IO(std::uint8_t, u8)
RIV_CODEC_IO(std::uint16_t, u16)
RIV_CODEC_IO(std::uint32_t, u32)
RIV_CODEC_IO(std::uint64_t, u64)
RIV_CODEC_IO(std::int64_t, i64)
RIV_CODEC_IO(double, f64)
RIV_CODEC_IO(ProcessId, process_id)
RIV_CODEC_IO(SensorId, sensor_id)
RIV_CODEC_IO(ActuatorId, actuator_id)
RIV_CODEC_IO(AppId, app_id)
RIV_CODEC_IO(EventId, event_id)
RIV_CODEC_IO(CommandId, command_id)
RIV_CODEC_IO(ProvenanceId, provenance_id)
RIV_CODEC_IO(TimePoint, time_point)
RIV_CODEC_IO(Duration, duration)
RIV_CODEC_IO(std::string, str)
#undef RIV_CODEC_IO

inline void io(BinaryWriter& w, const std::vector<std::byte>& v) {
  w.bytes(v);
}
inline void io(BinaryReader& r, std::vector<std::byte>& v) { r.bytes(v); }

inline void io(BinaryWriter& w, const bool& v) { w.u8(v ? 1 : 0); }
inline void io(BinaryReader& r, bool& v) { v = r.u8() != 0; }

// A generator mid-stream: its four xoshiro state words.
inline void io(BinaryWriter& w, const Rng& rng) {
  for (std::uint64_t word : rng.state()) w.u64(word);
}
inline void io(BinaryReader& r, Rng& rng) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = r.u64();
  rng.set_state(state);
}

// A process-id set: u8 count, then the ids ascending (its wire form too).
inline void io(BinaryWriter& w, const PidSet& s) {
  RIV_ASSERT(s.size() <= 255, "process-id set too large for the wire");
  w.u8(static_cast<std::uint8_t>(s.size()));
  for (ProcessId p : s) w.process_id(p);
}
inline void io(BinaryReader& r, PidSet& s) {
  s.clear();
  const std::uint8_t n = r.u8();
  s.reserve(n);
  // Encoded sets are already ascending, so each insert is an append.
  for (std::uint8_t i = 0; i < n; ++i) s.insert(r.process_id());
}

// A type with a public static io_state (plain data: events, commands,
// frames) is a field; so is a component, through its clone_state /
// restore_clone pair.
template <Archive A, class T>
  requires requires(A& a, T& t) { std::remove_const_t<T>::io_state(a, t); }
void io(A& a, T& t) {
  std::remove_const_t<T>::io_state(a, t);
}
template <class T>
  requires requires(const T& t, BinaryWriter& w) { t.clone_state(w); }
void io(BinaryWriter& w, const T& t) {
  t.clone_state(w);
}
template <class T>
  requires requires(T& t, BinaryReader& r) { t.restore_clone(r); }
void io(BinaryReader& r, T& t) {
  t.restore_clone(r);
}

// A field stored in another form: capture writes to_stored(v); restore
// reads the stored form s and sets v = from_stored(s).
template <class T, class To, class From>
void io_via(BinaryWriter& w, const T& v, To&& to_stored, From&& /*from*/) {
  io(w, std::invoke(to_stored, v));
}
template <class T, class To, class From>
void io_via(BinaryReader& r, T& v, To&& /*to*/, From&& from_stored) {
  std::decay_t<std::invoke_result_t<To&, const T&>> stored{};
  io(r, stored);
  v = std::invoke(from_stored, std::move(stored));
}

// A field stored as U: an enum as its byte, an int as u32.
template <class U, Archive A, class T>
void io_as(A& a, T& v) {
  using V = std::remove_const_t<T>;
  io_via(
      a, v, [](const V& x) { return static_cast<U>(x); },
      [](U u) { return static_cast<V>(u); });
}

// An identity field: capture writes it; restore reads it and aborts with
// `what` unless it equals the target's own value (same scenario, same
// build order).
template <class T>
void expect(BinaryWriter& w, const T& v, const char* /*what*/) {
  io(w, v);
}
template <class T>
void expect(BinaryReader& r, const T& v, const char* what) {
  T got{};
  io(r, got);
  RIV_ASSERT(got == v, what);
}

// A field restore rebuilds instead of reading: capture writes it, restore
// reads past it.
template <class T>
void skip(BinaryWriter& w, const T& v) {
  io(w, v);
}
template <class T>
void skip(BinaryReader& r, const T& /*v*/) {
  T dropped{};
  io(r, dropped);
}

// A counted sequence restore reads past: capture writes the count and
// proj(x) for each element, restore reads and drops as many.
template <class C, class Proj>
void skip_seq(BinaryWriter& w, const C& c, Proj&& proj) {
  w.u64(c.size());
  for (const auto& x : c) io(w, proj(x));
}
template <class C, class Proj>
void skip_seq(BinaryReader& r, const C& /*c*/, Proj&& /*proj*/) {
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    std::decay_t<std::invoke_result_t<Proj&, const typename C::value_type&>>
        dropped{};
    io(r, dropped);
  }
}

// An optional: a presence bool, then the value through `f`.
template <Archive A, class Opt, class F>
void io_optional(A& a, Opt& v, F&& f) {
  bool present = v.has_value();
  io(a, present);
  if constexpr (A::kReads) {
    v.reset();
    if (present) v.emplace();
  }
  if (present) f(*v);
}

// A counted sequence: the element count as U (io_count; u64 unless a wire
// frame pins a narrower width), then each element through `f`
// (io_elements). Restore fails the reader when the count exceeds the bytes
// left (every element takes at least one), clears the container and
// appends each element at the end, so a sorted set or map written in its
// own order restores in O(n).
template <class C>
struct SeqElement {
  using type = typename C::value_type;
};
template <class C>
  requires requires { typename C::mapped_type; }
struct SeqElement<C> {
  using type = std::pair<typename C::key_type, typename C::mapped_type>;
};

template <class T>
inline constexpr bool kVector = false;
template <class T>
inline constexpr bool kVector<std::vector<T>> = true;

template <class U = std::uint64_t, class C>
std::uint64_t io_count(BinaryWriter& w, const C& c) {
  if constexpr (sizeof(U) < sizeof(std::uint64_t))
    RIV_ASSERT(c.size() <= std::numeric_limits<U>::max(),
               "sequence too long for its count field");
  io(w, static_cast<U>(c.size()));
  return c.size();
}
template <class U>
std::uint64_t read_count(BinaryReader& r) {
  U n{};
  io(r, n);
  if (n <= r.remaining()) return n;
  r.fail();
  return 0;
}
template <class U = std::uint64_t, class C>
std::uint64_t io_count(BinaryReader& r, C& c) {
  c.clear();
  const std::uint64_t n = read_count<U>(r);
  if constexpr (requires { c.reserve(n); }) c.reserve(n);
  return n;
}

template <class C, class F>
void io_elements(BinaryWriter& /*w*/, const C& c, std::uint64_t /*n*/,
                 F&& f) {
  for (const auto& x : c) f(x);
}
template <class C, class F>
void io_elements(BinaryReader& r, C& c, std::uint64_t n, F&& f) {
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    typename SeqElement<C>::type x{};
    f(x);
    c.insert(c.end(), std::move(x));
  }
}
template <Archive A, class C>
void io_elements(A& a, C& c, std::uint64_t n) {
  io_elements(a, c, n, [&a](auto& x) { io(a, x); });
}

// io_count then io_elements; a layout with other fields between the two
// calls them itself.
template <class U = std::uint64_t, Archive A, class C, class F>
void io_seq(A& a, C& c, F&& f) {
  io_elements(a, c, io_count<U>(a, c), f);
}
// A sequence of fields, each through its own io. Restore reads a vector
// over in place instead (resized to the count), so a frame decoded again
// into the same object keeps its elements' buffers.
template <class U = std::uint64_t, Archive A, class C>
void io_seq(A& a, C& c) {
  if constexpr (A::kReads && kVector<C>) {
    c.resize(read_count<U>(a));
    for (auto& x : c) {
      if (!a.ok()) break;
      io(a, x);
    }
  } else {
    io_elements(a, c, io_count<U>(a, c));
  }
}

// A mostly-zero array: the count of nonzero entries as u32, then each one
// as (u32 index, u64 value).
template <std::size_t N>
void io_sparse(BinaryWriter& w, const std::array<std::uint64_t, N>& v) {
  std::uint32_t nonzero = 0;
  for (std::uint64_t x : v) nonzero += x != 0 ? 1u : 0u;
  w.u32(nonzero);
  for (std::size_t i = 0; i < N; ++i) {
    if (v[i] == 0) continue;
    w.u32(static_cast<std::uint32_t>(i));
    w.u64(v[i]);
  }
}
template <std::size_t N>
void io_sparse(BinaryReader& r, std::array<std::uint64_t, N>& v) {
  v.fill(0);
  const std::uint32_t nonzero = r.u32();
  for (std::uint32_t j = 0; j < nonzero && r.ok(); ++j) {
    const std::uint32_t i = r.u32();
    RIV_ASSERT(i < N, "clone restore: histogram bucket oob");
    v[i] = r.u64();
  }
}

// A vector whose entries before `first` are dead: capture writes the live
// tail as a counted sequence, restore reads it into the vector from 0.
template <class T, class F>
void io_tail(BinaryWriter& w, const std::vector<T>& v, std::size_t first,
             F&& f) {
  w.u64(v.size() - first);
  for (std::size_t i = first; i < v.size(); ++i) f(v[i]);
}
template <class T, class F>
void io_tail(BinaryReader& r, std::vector<T>& v, std::size_t /*first*/,
             F&& f) {
  io_seq(r, v, f);
}

// Standard containers, pairs and optionals of fields are fields.
template <class T>
inline constexpr bool kCountedSeq = false;
template <class T>
inline constexpr bool kCountedSeq<std::vector<T>> =
    !std::is_same_v<T, std::byte>;
template <class T>
inline constexpr bool kCountedSeq<std::deque<T>> = true;
template <class T>
inline constexpr bool kCountedSeq<std::set<T>> = true;
template <class K, class V>
inline constexpr bool kCountedSeq<std::map<K, V>> = true;

template <Archive A, class C>
  requires kCountedSeq<std::remove_const_t<C>>
void io(A& a, C& c) {
  io_seq(a, c);
}

// A sequence set and an event-id set: a u64 count, then the members
// ascending — the layout of the ordered sets they replace. Restore's
// ascending inserts each extend the last run.
inline void io(BinaryWriter& w, const SeqSet& s) {
  w.u64(s.size());
  for (std::uint32_t seq : s) w.u32(seq);
}
inline void io(BinaryReader& r, SeqSet& s) {
  s.clear();
  const std::uint64_t n = read_count<std::uint64_t>(r);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) s.insert(r.u32());
}
inline void io(BinaryWriter& w, const EventIdSet& s) {
  w.u64(s.size());
  for (const auto& [sensor, seqs] : s.streams())
    for (std::uint32_t seq : seqs) w.event_id({sensor, seq});
}
inline void io(BinaryReader& r, EventIdSet& s) {
  s.clear();
  const std::uint64_t n = read_count<std::uint64_t>(r);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) s.insert(r.event_id());
}

// A hash map is written in key order, so equal contents capture equal
// bytes whatever their insertion and rehash history.
template <class K, class V>
void io(BinaryWriter& w, const std::unordered_map<K, V>& m) {
  std::vector<const typename std::unordered_map<K, V>::value_type*> sorted;
  sorted.reserve(m.size());
  for (const auto& kv : m) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* x, const auto* y) { return x->first < y->first; });
  w.u64(sorted.size());
  for (const auto* kv : sorted) io(w, *kv);
}
template <class K, class V>
void io(BinaryReader& r, std::unordered_map<K, V>& m) {
  io_seq(r, m, [&r](auto& kv) { io(r, kv); });
}

template <class T>
inline constexpr bool kPair = false;
template <class First, class Second>
inline constexpr bool kPair<std::pair<First, Second>> = true;

template <Archive A, class P>
  requires kPair<std::remove_const_t<P>>
void io(A& a, P& p) {
  io(a, p.first);
  io(a, p.second);
}

template <class T>
inline constexpr bool kOptional = false;
template <class T>
inline constexpr bool kOptional<std::optional<T>> = true;

template <Archive A, class O>
  requires kOptional<std::remove_const_t<O>>
void io(A& a, O& o) {
  io_optional(a, o, [&a](auto& x) { io(a, x); });
}

// --- Frame buffers -----------------------------------------------------------
// A wire frame's bytes live in a FrameBlock: the byte buffer and its
// reference count in one object. encode() below draws a block from the
// calling thread's free list, net::Payload shares it across every copy of
// a fan-out, and when the last reference drops the block goes back to the
// free list of the thread that dropped it, capacity and all. The next
// encode on that thread writes into it, so the steady-state event path
// allocates no frame memory (DESIGN.md §9). The bounds are constants:
//   - a new block's buffer starts at kFloorBytes, so a recycled one rarely
//     has to grow for the next frame;
//   - a block whose buffer grew past kKeptBytes (a 1-20 KB camera frame)
//     is freed, not kept;
//   - a list holds at most kFreeBlocks blocks; the rest are freed.
// So a thread's idle frame memory stays under kFreeBlocks * kKeptBytes.
struct FrameBlock {
  static constexpr std::size_t kFloorBytes = 256;
  static constexpr std::size_t kKeptBytes = 1024;
  static constexpr std::size_t kFreeBlocks = 256;

  // Atomic: a block may be released on another thread than the one that
  // encoded it (a home built on one thread and run or destroyed on a
  // worker).
  std::atomic<std::uint32_t> refs{1};
  std::vector<std::byte> bytes;

  // A block with one reference and no bytes, from this thread's list when
  // it has one.
  static FrameBlock* acquire();
  // Drop one reference. The last one returns the block to this thread's
  // list, or frees it when the list is full, the buffer is over
  // kKeptBytes, or the list is gone (a release during static destruction).
  static void release(FrameBlock* block) noexcept;
  // Blocks on this thread's list.
  static std::size_t free_count();
};

// The one, writable reference to a block: what encode() returns. A sealed
// frame appends its trailer to bytes() before net::Payload adopts the
// block. Converting it to a vector moves the bytes out.
class FrameBuffer {
 public:
  FrameBuffer() : block_(FrameBlock::acquire()) {}
  FrameBuffer(FrameBuffer&& o) noexcept
      : block_(std::exchange(o.block_, nullptr)) {}
  FrameBuffer& operator=(FrameBuffer&&) = delete;
  ~FrameBuffer() {
    if (block_ != nullptr) FrameBlock::release(block_);
  }

  std::vector<std::byte>& bytes() { return block_->bytes; }
  const std::vector<std::byte>& bytes() const { return block_->bytes; }
  std::size_t size() const { return block_->bytes.size(); }
  operator std::vector<std::byte>() && {  // NOLINT
    return std::move(block_->bytes);
  }

  // Hand the reference to the caller (net::Payload adopts it).
  FrameBlock* release() && { return std::exchange(block_, nullptr); }

 private:
  FrameBlock* block_;
};

// --- Wire frames -------------------------------------------------------------
// A wire frame is plain data that lists its fields once, in a static
// io_state like a snapshot component's, and states its exact encoded size
// in encoded_size(). encode and decode are the only way a frame crosses the
// wire (core/wire.hpp, and the membership and store frames).
template <class F>
concept WireFrame = requires(const F& f, BinaryWriter& w) {
  { f.encoded_size() } -> std::convertible_to<std::size_t>;
  F::io_state(w, f);
};

// The frame's bytes into `out`, reusing its capacity, with room reserved
// for `spare` more (a sealed frame's trailer).
template <WireFrame F>
void encode(const F& f, std::vector<std::byte>& out, std::size_t spare = 0) {
  BinaryWriter w(std::move(out));
  w.reserve(f.encoded_size() + spare);
  io(w, f);
  out = w.take();
}

// The same into a recycled frame block.
template <WireFrame F>
FrameBuffer encode(const F& f, std::size_t spare = 0) {
  FrameBuffer out;
  encode(f, out.bytes(), spare);
  return out;
}

// Total: true iff every read stayed in bounds, the frame's validity rule
// held (a frame with one fails the reader from its io_state's read branch)
// and `buf` was consumed exactly. On false `f` is unspecified.
template <WireFrame F>
bool decode(const std::vector<std::byte>& buf, F& f) {
  BinaryReader r(buf);
  io(r, f);
  return r.ok() && r.at_end();
}

}  // namespace riv
