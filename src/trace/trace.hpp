// Flight recorder: a structured, deterministically-ordered event trace
// that every layer of the stack emits into.
//
// Each record is (virtual_time, process, component, kind, fields): the sim
// kernel logs timer dispatch, the network logs send/recv/drop and link
// transitions, membership logs view changes, the delivery service logs
// ingest/fallback/epoch activity, the runtime logs deliveries and logic
// failovers, and the chaos injector logs every fault it applies. Records
// are appended in simulation callback execution order, which the
// discrete-event kernel makes deterministic, so two runs of the same seed
// produce byte-identical traces — the substrate for golden-trace
// regression testing (tests/trace_golden) and replayable chaos artifacts
// (tools/chaos_run --trace).
//
// Storage is trace format v3 (see format.hpp): emit sites pass typed
// fields (key id + value) that are packed straight into a chunked
// append-only byte arena owned by the Recorder — no detail-string
// formatting and no per-record allocation on the hot path. The rolling
// FNV-1a determinism hash is folded over the packed bytes as they are
// written. Reading the trace back goes through one bounds-checked scan
// that decodes each record's header and leaves its fields packed
// (RecordView); provenance analysis reads typed fields straight from it,
// and records() (trace_diff, goldens, the audit) renders each record's
// fields into the same canonical "key=value key=value" detail string the
// v2 recorder stored eagerly.
//
// Recording is scoped, not global configuration: installing a Recorder via
// trace::Scope makes it the current sink; with no recorder installed every
// emit site short-circuits on one branch, so the instrumented hot paths
// cost nothing in benches.
//
// Sinks: by default the arena lives in memory. stream_to() switches the
// recorder to a streaming file sink (sealed chunks are flushed and their
// memory reused, so a trace of any length needs one chunk of RAM);
// set_ring_limit() keeps only the most recent N bytes of packed records,
// dropping whole chunks from the front (chaos_run --trace-ring).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "trace/format.hpp"

namespace riv::trace {

// Which layer emitted the record. Values are part of the on-disk format:
// append only, never renumber.
enum class Component : std::uint8_t {
  kSim = 0,         // discrete-event kernel
  kNet = 1,         // simulated WiFi transport
  kDevice = 2,      // sensors / actuators
  kMembership = 3,  // failure detector
  kDelivery = 4,    // gapless ring / gap chain
  kRuntime = 5,     // execution service, delivery into logic
  kChaos = 6,       // fault injector
};
inline constexpr int kComponentCount = 7;
const char* to_string(Component c);

// What happened. Values are part of the on-disk format: append only.
enum class Kind : std::uint8_t {
  kTimerFire = 0,  // sim dispatched a timer callback
  kSend = 1,       // frame put on the wire
  kRecv = 2,       // frame handed to the destination endpoint
  kDrop = 3,       // frame lost (crash, partition, edge loss, in flight)
  kLink = 4,       // partition / reachability / edge-quality transition
  kEmit = 5,       // sensor emitted an event
  kView = 6,       // membership view changed
  kIngest = 7,     // delivery stream accepted a new event
  kFallback = 8,   // gapless ring stalled; reliable broadcast initiated
  kEpoch = 9,      // coordinated-polling epoch boundary
  kDeliver = 10,   // event fed to the active logic node
  kPromote = 11,   // logic node promoted
  kDemote = 12,    // logic node demoted
  kCommand = 13,   // actuation command submitted to a device
  kFault = 14,     // chaos injector applied a fault action
  kMark = 15,      // free-form scenario annotation
  kAdapterRx = 16,  // process-side adapter received a device frame
  kLogicFire = 17,  // a logic trigger fired (windows evaluated, handler ran)
  kActuated = 18,   // actuator applied a command
  kCrash = 19,      // process crashed
  kRecover = 20,    // process recovered
  kTamper = 21,     // integrity check rejected a frame/event (bad MAC,
                    // forged origin, replayed sequence)
  kByzantine = 22,  // chaos injector performed a Byzantine attack
                    // (ground-truth marker for the integrity audit)
};
inline constexpr int kKindCount = 23;
const char* to_string(Kind k);

// The rendered form of one record. The packed arena is the source of
// truth; a Record is materialised on demand by records(), with `detail`
// rendered from the typed fields in the canonical "key=value key=value"
// form (identical to what v2 stored eagerly), so diffing, the audit and
// goldens keep their exact semantics.
struct Record {
  TimePoint at{};
  ProcessId process{};  // ProcessId{0} = no single process (global event)
  Component component{Component::kSim};
  Kind kind{Kind::kMark};
  // Causal id of the sensor event this record is about; invalid (all
  // zero) for records that are not scoped to one event (timers, link
  // transitions, views, faults). Typed rather than folded into `detail`
  // so trace_analyze can reconstruct per-event chains without parsing.
  ProvenanceId prov{};
  // Canonical "key=value key=value" payload, rendered at decode time.
  std::string detail;

  bool operator==(const Record&) const = default;
};

// One-line rendering: "t=12345us p2 net/send type=ring_event ...".
std::string to_string(const Record& r);

// One record as Recorder::scan sees it: the header decoded, the fields
// left packed where they lie. It points into the recorder's chunks, so it
// is valid until the next append to that recorder (or its move or
// destruction); copy out what must outlive that.
class RecordView {
 public:
  TimePoint at{};
  ProcessId process{};
  Component component{Component::kSim};
  Kind kind{Kind::kMark};
  ProvenanceId prov{};

  // The first field under `key`, which must be a kU64 key; nullopt when
  // the record has none. Bare kText fields are not parsed, so a record
  // appended from a hand-built Record answers nullopt for every key.
  std::optional<std::uint64_t> u64(Key key) const;
  // Append the canonical detail (Record::detail) to `out`.
  void render_detail(std::string& out) const;
  std::string detail() const {
    std::string out;
    render_detail(out);
    return out;
  }

 private:
  friend class Recorder;
  const std::byte* fields_{nullptr};  // first packed field
  const std::byte* end_{nullptr};     // one past the last packed field
  std::uint8_t nfields_{0};
};

inline constexpr std::uint32_t component_bit(Component c) {
  return 1u << static_cast<std::uint32_t>(c);
}
inline constexpr std::uint32_t kAllComponents =
    (1u << kComponentCount) - 1;

// --- typed fields ---------------------------------------------------------
// One Field carries a key id and the value for that key. Emit sites build
// them with the factory helpers below (fu/fi/fp/fs/fe/fc/fa/fv); the
// factories assert in debug builds that the key's declared VType matches.
// Fields are tiny PODs passed by value — nothing here allocates.

struct FieldU {
  Key key;
  std::uint64_t v;
};
struct FieldI {
  Key key;
  std::int64_t v;
};
struct FieldPid {
  Key key;
  ProcessId v;
};
struct FieldStr {
  Key key;
  std::string_view v;  // must outlive the append call (it is copied there)
};
struct FieldEvent {
  Key key;
  EventId v;
};
struct FieldCmd {
  Key key;
  CommandId v;
};
struct FieldAct {
  Key key;
  ActuatorId v;
};
struct FieldView {
  Key key;
  const ProcessId* data;
  std::size_t n;
};

namespace detail_impl {
inline VType type_of(Key k) {
  return kKeyTable[static_cast<std::uint8_t>(k)].type;
}
template <typename T>
inline constexpr bool is_field_v = false;
template <> inline constexpr bool is_field_v<FieldU> = true;
template <> inline constexpr bool is_field_v<FieldI> = true;
template <> inline constexpr bool is_field_v<FieldPid> = true;
template <> inline constexpr bool is_field_v<FieldStr> = true;
template <> inline constexpr bool is_field_v<FieldEvent> = true;
template <> inline constexpr bool is_field_v<FieldCmd> = true;
template <> inline constexpr bool is_field_v<FieldAct> = true;
template <> inline constexpr bool is_field_v<FieldView> = true;
}  // namespace detail_impl

template <typename T>
concept IsField = detail_impl::is_field_v<std::remove_cvref_t<T>>;

inline FieldU fu(Key k, std::uint64_t v) {
  assert(detail_impl::type_of(k) == VType::kU64);
  return {k, v};
}
inline FieldI fi(Key k, std::int64_t v) {
  assert(detail_impl::type_of(k) == VType::kI64);
  return {k, v};
}
inline FieldPid fp(Key k, ProcessId v) {
  assert(detail_impl::type_of(k) == VType::kPid);
  return {k, v};
}
inline FieldStr fs(Key k, std::string_view v) {
  assert(detail_impl::type_of(k) == VType::kStr);
  return {k, v};
}
inline FieldEvent fe(Key k, EventId v) {
  assert(detail_impl::type_of(k) == VType::kEvent);
  return {k, v};
}
inline FieldCmd fc(Key k, CommandId v) {
  assert(detail_impl::type_of(k) == VType::kCmd);
  return {k, v};
}
inline FieldAct fa(Key k, ActuatorId v) {
  assert(detail_impl::type_of(k) == VType::kAct);
  return {k, v};
}
inline FieldView fv(Key k, const std::vector<ProcessId>& v) {
  assert(detail_impl::type_of(k) == VType::kView);
  return {k, v.data(), v.size()};
}

class Recorder {
 public:
  // `mask` selects which components are recorded (bitwise OR of
  // component_bit); everything else is dropped at the emit site.
  explicit Recorder(std::uint32_t mask = kAllComponents);
  ~Recorder();
  Recorder(Recorder&&) noexcept;
  Recorder& operator=(Recorder&&) noexcept;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool wants(Component c) const { return (mask_ & component_bit(c)) != 0; }
  std::uint32_t mask() const { return mask_; }

  // Append one record built from typed fields. This is the hot path: the
  // fields are packed into a scratch buffer, the header is placed
  // directly into the arena once the chunk placement (and therefore the
  // abs-vs-delta time encoding) is known, and the rolling hash is folled
  // over the packed bytes. No allocation in steady state.
  template <IsField... Fields>
  void append(TimePoint at, ProcessId process, Component component,
              Kind kind, ProvenanceId prov, const Fields&... fields) {
    if (!wants(component)) return;
    scratch_used_ = 0;
    (put_field(fields), ...);
    commit(at, process, component, kind, prov,
           static_cast<std::uint8_t>(sizeof...(Fields)));
  }
  template <IsField... Fields>
  void append(TimePoint at, ProcessId process, Component component,
              Kind kind, const Fields&... fields) {
    append(at, process, component, kind, ProvenanceId{}, fields...);
  }

  // Compatibility append for hand-built records (tests, replay tools):
  // the detail string is stored verbatim as a single bare-text field, so
  // it decodes back to an equal Record.
  void append(const Record& r);

  // Visit every retained record in append order as a RecordView: headers
  // are decoded, fields stay packed and nothing is rendered or allocated.
  // `f` must not append to this recorder.
  template <typename F>
  void scan(F&& f) const {
    RecordView v;
    TimePoint last{};
    for (const Chunk& c : chunks_) {
      const std::byte* p = c.data.get();
      const std::byte* end = p + c.used;
      for (std::uint32_t i = 0; i < c.n_records; ++i) {
        // Cannot fail: append() wrote these bytes, or decode() checked them.
        if (!read_record(p, end, last, v)) return;
        f(static_cast<const RecordView&>(v));
      }
    }
  }

  // Decode every retained record out of the arena: scan() plus rendering.
  // By value: each call re-renders from the packed bytes (tools call this
  // once).
  std::vector<Record> records() const;

  // Retained record count (== records().size()).
  std::size_t size() const { return retained_records_; }
  // Packed bytes currently retained (arena) plus already streamed out.
  std::size_t payload_bytes() const;

  // Rolling FNV-1a over every packed record byte ever appended, in
  // append order — the determinism fingerprint. In ring mode this still
  // covers dropped chunks; the file footer written by encode()/finish()
  // always covers exactly the bytes in the file. Hashing is lazy: bytes
  // are mixed in bulk when a chunk seals, and the open chunk's suffix is
  // folded in here — appends stay hash-free on the hot path.
  std::uint64_t hash() const {
    flush_open_hash();
    return stream_hash_.value();
  }
  // hash() as fixed-width hex.
  std::string digest() const { return hash::fnv1a_digest(hash()); }

  // --- on-disk format ----------------------------------------------------
  // magic "RIVT" | version u32 | packed records | 0xFF | count u64 |
  // hash u64 (FNV-1a stream over the packed record bytes in the file).
  std::vector<std::byte> encode() const;
  // Returns false (and sets *error) on malformed input, bad magic, a
  // non-v3 version ("unsupported trace version N (this build reads 3)"),
  // a structurally invalid record stream, trailing garbage, or a footer
  // hash that does not match the payload.
  static bool decode(const std::vector<std::byte>& buf, Recorder* out,
                     std::string* error);

  bool save(const std::string& path, std::string* error = nullptr) const;
  static bool load(const std::string& path, Recorder* out,
                   std::string* error = nullptr);

  // --- sinks --------------------------------------------------------------
  // Switch to the streaming file sink: the header is written now, each
  // chunk is flushed as it seals (its buffer is reused), and finish()
  // writes the footer. Must be called before the first append; after it,
  // records()/encode() see only the not-yet-flushed tail. Returns false
  // (and sets *error) if the file cannot be opened.
  bool stream_to(const std::string& path, std::string* error = nullptr);
  // Flush the tail and write the footer; the stream is closed and further
  // appends are discarded. No-op unless streaming.
  bool finish(std::string* error = nullptr);
  bool streaming() const { return stream_ != nullptr; }

  // Keep only the most recent ~`bytes` of packed records, dropping whole
  // sealed chunks from the front (the first retained record always
  // carries an absolute timestamp, so decoding stays exact). 0 disables.
  void set_ring_limit(std::size_t bytes) { ring_limit_ = bytes; }
  std::size_t ring_limit() const { return ring_limit_; }
  // Records dropped so far by the ring (0 outside ring mode).
  std::uint64_t dropped_records() const { return dropped_records_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::uint32_t capacity{0};
    std::uint32_t used{0};
    std::uint32_t n_records{0};
  };

  static constexpr std::size_t kChunkSize = 64 * 1024;
  // Worst-case packed header: flags + kind + time varint + process
  // varint + prov (2 varints) + nfields.
  static constexpr std::size_t kMaxHeaderBytes = 1 + 1 + 10 + 10 + 20 + 1;

  // The one header decoder, shared by scan(), records() and decode():
  // reads the record at `p` (never past `end`), validates its header and
  // the shape of every field without rendering, fills `out` and advances
  // `p` past it. `last` is the delta-time base, updated on success.
  // Returns false on a malformed or truncated record.
  static bool read_record(const std::byte*& p, const std::byte* end,
                          TimePoint& last, RecordView& out);

  // -- scratch writers (fields section only; header is written by commit)
  void scratch_reserve(std::size_t extra) {
    if (scratch_used_ + extra > scratch_.size())
      scratch_.resize(scratch_used_ + extra < 2 * scratch_.size()
                          ? 2 * scratch_.size()
                          : scratch_used_ + extra);
  }
  void scratch_u8(std::uint8_t b) {
    scratch_reserve(1);
    scratch_[scratch_used_++] = static_cast<std::byte>(b);
  }
  void scratch_varint(std::uint64_t v) {
    scratch_reserve(kMaxVarintBytes);
    while (v >= 0x80) {
      scratch_[scratch_used_++] =
          static_cast<std::byte>(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    scratch_[scratch_used_++] = static_cast<std::byte>(v);
  }
  void put_field(const FieldU& f) {
    scratch_u8(static_cast<std::uint8_t>(f.key));
    scratch_varint(f.v);
  }
  void put_field(const FieldI& f) {
    scratch_u8(static_cast<std::uint8_t>(f.key));
    scratch_varint(zigzag(f.v));
  }
  void put_field(const FieldPid& f) {
    scratch_u8(static_cast<std::uint8_t>(f.key));
    scratch_varint(f.v.value);
  }
  void put_field(const FieldStr& f) {
    scratch_u8(static_cast<std::uint8_t>(f.key));
    scratch_varint(f.v.size());
    if (!f.v.empty()) {
      scratch_reserve(f.v.size());
      std::memcpy(scratch_.data() + scratch_used_, f.v.data(), f.v.size());
      scratch_used_ += f.v.size();
    }
  }
  void put_field(const FieldEvent& f) {
    scratch_u8(static_cast<std::uint8_t>(f.key));
    scratch_varint(f.v.sensor.value);
    scratch_varint(f.v.seq);
  }
  void put_field(const FieldCmd& f) {
    scratch_u8(static_cast<std::uint8_t>(f.key));
    scratch_varint(f.v.origin.value);
    scratch_varint(f.v.seq);
  }
  void put_field(const FieldAct& f) {
    scratch_u8(static_cast<std::uint8_t>(f.key));
    scratch_varint(f.v.value);
  }
  void put_field(const FieldView& f) {
    scratch_u8(static_cast<std::uint8_t>(f.key));
    scratch_varint(f.n);
    for (std::size_t i = 0; i < f.n; ++i) scratch_varint(f.data[i].value);
  }

  // Place header + scratch fields into the arena.
  void commit(TimePoint at, ProcessId process, Component component,
              Kind kind, ProvenanceId prov, std::uint8_t nfields);
  void seal_chunk();            // current chunk is done; next append opens
  void enforce_ring_limit();    // drop front chunks past ring_limit_
  Chunk& writable_chunk(std::size_t need);  // chunk with `need` bytes free
  // Mix the back chunk's not-yet-hashed suffix into stream_hash_.
  // Invariant: every chunk except the back one is fully hashed; the back
  // chunk is hashed up to open_hashed_.
  void flush_open_hash() const;

  std::uint32_t mask_;
  std::vector<Chunk> chunks_;
  bool chunk_open_{false};      // next record continues the current chunk
  TimePoint last_time_{};       // delta-encoding base
  std::size_t retained_records_{0};
  std::uint64_t dropped_records_{0};
  mutable hash::Fnv1aStream stream_hash_;
  mutable std::uint32_t open_hashed_{0};  // hashed bytes of the back chunk

  std::vector<std::byte> scratch_;  // fields section of the in-flight record
  std::size_t scratch_used_{0};

  // streaming sink
  struct StreamState;
  std::unique_ptr<StreamState> stream_;
  std::uint64_t streamed_bytes_{0};
  std::uint64_t streamed_records_{0};
  Chunk spare_;  // recycled buffer for the next chunk after a flush

  std::size_t ring_limit_{0};
};

// --- the current recorder ------------------------------------------------
// The simulator is single-threaded, so "current recorder" is one module-
// level pointer. thread_local so each lane of a parallel seed sweep can
// install its own recorder. Scope installs a recorder RAII-style (nesting
// restores the previous one), and emit()/active() are the only calls
// instrumented code makes.

Recorder* current();
namespace detail_impl {
extern thread_local Recorder* g_current;
}

class Scope {
 public:
  explicit Scope(Recorder& r);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder* prev_;
};

// Fast gate: is a recorder installed and interested in this component?
// Emit sites check this before gathering field values.
bool active(Component c);

// Append to the current recorder; no-op when none is installed or the
// component is masked out.
template <IsField... Fields>
inline void emit(TimePoint at, ProcessId process, Component component,
                 Kind kind, const Fields&... fields) {
  Recorder* r = detail_impl::g_current;
  if (r == nullptr || !r->wants(component)) return;
  r->append(at, process, component, kind, fields...);
}
// Same, with the causal id of the sensor event the record is about.
template <IsField... Fields>
inline void emit(TimePoint at, ProcessId process, Component component,
                 Kind kind, ProvenanceId prov, const Fields&... fields) {
  Recorder* r = detail_impl::g_current;
  if (r == nullptr || !r->wants(component)) return;
  r->append(at, process, component, kind, prov, fields...);
}

// Free-form annotation convenience (scenario marks, link transitions):
// stores the text as one bare kText field.
void emit_text(TimePoint at, ProcessId process, Component component,
               Kind kind, std::string_view text);
void emit_text(TimePoint at, ProcessId process, Component component,
               Kind kind, ProvenanceId prov, std::string_view text);

}  // namespace riv::trace
