#include "trace/trace.hpp"

#include <charconv>
#include <fstream>

namespace riv::trace {

namespace detail_impl {
// thread_local so each lane of a parallel seed sweep (chaos_run --jobs,
// bench_util::parallel_map) can install its own recorder: a Scope on one
// worker thread never bleeds records into — or observes — another lane.
thread_local Recorder* g_current = nullptr;
}  // namespace detail_impl

const char* to_string(Component c) {
  switch (c) {
    case Component::kSim: return "sim";
    case Component::kNet: return "net";
    case Component::kDevice: return "device";
    case Component::kMembership: return "membership";
    case Component::kDelivery: return "delivery";
    case Component::kRuntime: return "runtime";
    case Component::kChaos: return "chaos";
  }
  return "unknown";
}

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kTimerFire: return "timer_fire";
    case Kind::kSend: return "send";
    case Kind::kRecv: return "recv";
    case Kind::kDrop: return "drop";
    case Kind::kLink: return "link";
    case Kind::kEmit: return "emit";
    case Kind::kView: return "view";
    case Kind::kIngest: return "ingest";
    case Kind::kFallback: return "fallback";
    case Kind::kEpoch: return "epoch";
    case Kind::kDeliver: return "deliver";
    case Kind::kPromote: return "promote";
    case Kind::kDemote: return "demote";
    case Kind::kCommand: return "command";
    case Kind::kFault: return "fault";
    case Kind::kMark: return "mark";
    case Kind::kAdapterRx: return "adapter_rx";
    case Kind::kLogicFire: return "logic_fire";
    case Kind::kActuated: return "actuated";
    case Kind::kCrash: return "crash";
    case Kind::kRecover: return "recover";
    case Kind::kTamper: return "tamper";
    case Kind::kByzantine: return "byzantine";
  }
  return "unknown";
}

std::string to_string(const Record& r) {
  std::string out = "t=" + std::to_string(r.at.us) + "us ";
  out += r.process.value == 0 ? "-" : riv::to_string(r.process);
  out += " ";
  out += to_string(r.component);
  out += "/";
  out += to_string(r.kind);
  if (r.prov.valid()) {
    out += " ev=";
    out += riv::to_string(r.prov);
  }
  if (!r.detail.empty()) {
    out += " ";
    out += r.detail;
  }
  return out;
}

// --- packed-stream reading ------------------------------------------------

namespace {

// A bounds-checked cursor over packed v3 bytes. Every read funnels
// through here so a truncated / corrupt / adversarial stream can only
// ever produce ok()==false, never an out-of-bounds access (the fuzz
// tests lean on this).
struct PackedReader {
  const std::byte* p;
  const std::byte* end;
  bool ok_ = true;

  bool ok() const { return ok_; }
  std::size_t remaining() const {
    return static_cast<std::size_t>(end - p);
  }

  std::uint8_t u8() {
    if (p >= end) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::uint8_t>(*p++);
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (int i = 0; i < kMaxVarintBytes; ++i) {
      if (p >= end) {
        ok_ = false;
        return 0;
      }
      std::uint8_t b = static_cast<std::uint8_t>(*p++);
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
    ok_ = false;  // over-long varint
    return 0;
  }
  std::uint64_t u64le() {
    if (remaining() < 8) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i]))
           << (8 * i);
    p += 8;
    return v;
  }
  std::string_view str(std::size_t n) {
    if (remaining() < n) {
      ok_ = false;
      return {};
    }
    std::string_view v(reinterpret_cast<const char*>(p), n);
    p += n;
    return v;
  }
};

// Read one field's value, handing its canonical v2 rendering to `emit`
// piece by piece (a char, a decimal number or a string_view). Returns
// false on a malformed value. Stepping over a value and rendering it are
// this one function with a different `emit`, so every value the scan
// accepts renders.
template <typename Emit>
bool read_value(PackedReader& r, VType type, const Emit& emit) {
  switch (type) {
    case VType::kU64:
      emit(r.varint());
      return r.ok();
    case VType::kI64:
      emit(unzigzag(r.varint()));
      return r.ok();
    case VType::kPid:
      emit('p');
      emit(r.varint());
      return r.ok();
    case VType::kStr: {
      std::uint64_t n = r.varint();
      if (!r.ok() || n > r.remaining()) return false;
      emit(r.str(static_cast<std::size_t>(n)));
      return true;
    }
    case VType::kEvent:
      emit('s');
      emit(r.varint());
      emit('#');
      emit(r.varint());
      return r.ok();
    case VType::kCmd:
      emit('p');
      emit(r.varint());
      emit('!');
      emit(r.varint());
      return r.ok();
    case VType::kAct:
      emit('a');
      emit(r.varint());
      return r.ok();
    case VType::kView: {
      std::uint64_t n = r.varint();
      if (!r.ok() || n > r.remaining()) return false;
      for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        if (i != 0) emit('+');
        emit('p');
        emit(r.varint());
      }
      return r.ok();
    }
  }
  return false;
}

// The `emit` that steps over a value.
constexpr auto kSkip = [](auto) {};

// The `emit` that renders a value into `out`.
struct Render {
  std::string& out;
  void operator()(char c) const { out += c; }
  void operator()(std::string_view text) const { out += text; }
  template <typename T>
  void operator()(T v) const {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
};

}  // namespace

// --- RecordView -----------------------------------------------------------
// A view's fields were validated by read_record, so these walks cannot
// fail; they still go through the bounds-checked reader.

std::optional<std::uint64_t> RecordView::u64(Key key) const {
  assert(detail_impl::type_of(key) == VType::kU64);
  PackedReader r{fields_, end_};
  for (std::uint8_t i = 0; i < nfields_ && r.ok(); ++i) {
    std::uint8_t k = r.u8();
    if (k == static_cast<std::uint8_t>(key)) return r.varint();
    if (!read_value(r, kKeyTable[k].type, kSkip)) break;
  }
  return std::nullopt;
}

void RecordView::render_detail(std::string& out) const {
  PackedReader r{fields_, end_};
  for (std::uint8_t i = 0; i < nfields_ && r.ok(); ++i) {
    const KeyInfo& info = kKeyTable[r.u8()];
    if (i != 0) out += ' ';
    if (info.name[0] != '\0') {
      out += info.name;
      out += '=';
    }
    read_value(r, info.type, Render{out});
  }
}

bool Recorder::read_record(const std::byte*& p, const std::byte* end,
                           TimePoint& last, RecordView& out) {
  PackedReader r{p, end};
  std::uint8_t flags = r.u8();
  if (!r.ok()) return false;
  std::uint8_t comp = flags & kFlagComponentMask;
  if (comp >= kComponentCount ||
      (flags & ~(kFlagComponentMask | kFlagProv | kFlagAbsTime)) != 0)
    return false;
  out.component = static_cast<Component>(comp);
  std::uint8_t kind = r.u8();
  if (!r.ok() || kind >= kKindCount) return false;
  out.kind = static_cast<Kind>(kind);
  std::int64_t t = unzigzag(r.varint());
  if (!r.ok()) return false;
  // Wrapping add: a corrupt delta must not be signed overflow.
  out.at.us = (flags & kFlagAbsTime) != 0
                  ? t
                  : static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(last.us) +
                        static_cast<std::uint64_t>(t));
  out.process.value = static_cast<std::uint16_t>(r.varint());
  if (!r.ok()) return false;
  if ((flags & kFlagProv) != 0) {
    out.prov.origin = static_cast<std::uint16_t>(r.varint());
    out.prov.seq = static_cast<std::uint32_t>(r.varint());
    if (!r.ok()) return false;
  } else {
    out.prov = ProvenanceId{};
  }
  out.nfields_ = r.u8();
  if (!r.ok()) return false;
  out.fields_ = r.p;
  for (std::uint8_t i = 0; i < out.nfields_; ++i) {
    std::uint8_t key = r.u8();
    if (!r.ok() || key >= kKeyCount) return false;
    if (!read_value(r, kKeyTable[key].type, kSkip)) return false;
  }
  out.end_ = r.p;
  last = out.at;
  p = r.p;
  return true;
}

// --- Recorder -------------------------------------------------------------

struct Recorder::StreamState {
  std::ofstream file;
  std::string path;
  bool finished = false;
};

Recorder::Recorder(std::uint32_t mask) : mask_(mask) {
  scratch_.resize(512);
}
Recorder::~Recorder() = default;
Recorder::Recorder(Recorder&&) noexcept = default;
Recorder& Recorder::operator=(Recorder&&) noexcept = default;

void Recorder::flush_open_hash() const {
  if (chunks_.empty()) return;
  const Chunk& c = chunks_.back();
  if (c.used > open_hashed_) {
    stream_hash_.put(c.data.get() + open_hashed_, c.used - open_hashed_);
    open_hashed_ = c.used;
  }
}

Recorder::Chunk& Recorder::writable_chunk(std::size_t need) {
  if (chunk_open_ && !chunks_.empty()) {
    Chunk& back = chunks_.back();
    if (back.capacity - back.used >= need) return back;
    seal_chunk();
  } else {
    // Pushing a fresh chunk retires the current back chunk (e.g. the
    // verbatim chunk decode() built) — catch its hash up first.
    flush_open_hash();
  }
  // Open a fresh chunk (oversized records get a chunk of their own).
  std::size_t cap = need > kChunkSize ? need : kChunkSize;
  Chunk c;
  if (spare_.data != nullptr && spare_.capacity >= cap) {
    c = std::move(spare_);
    c.used = 0;
    c.n_records = 0;
  } else {
    c.data = std::make_unique<std::byte[]>(cap);
    c.capacity = static_cast<std::uint32_t>(cap);
  }
  chunks_.push_back(std::move(c));
  chunk_open_ = true;
  open_hashed_ = 0;
  return chunks_.back();
}

void Recorder::seal_chunk() {
  chunk_open_ = false;
  if (chunks_.empty()) return;
  // The sealed chunk's bytes may be flushed to disk or dropped by the
  // ring; either way the rolling hash must cover them first. One bulk
  // word-wise sweep here replaces per-record hashing on the hot path.
  flush_open_hash();
  if (stream_ != nullptr && !stream_->finished) {
    // Streaming sink: flush the sealed chunk and recycle its buffer.
    Chunk& c = chunks_.back();
    stream_->file.write(reinterpret_cast<const char*>(c.data.get()),
                        static_cast<std::streamsize>(c.used));
    streamed_bytes_ += c.used;
    streamed_records_ += c.n_records;
    retained_records_ -= c.n_records;
    spare_ = std::move(c);
    chunks_.pop_back();
    return;
  }
  enforce_ring_limit();
}

void Recorder::enforce_ring_limit() {
  if (ring_limit_ == 0) return;
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.used;
  std::size_t drop = 0;
  while (drop + 1 < chunks_.size() && total > ring_limit_) {
    total -= chunks_[drop].used;
    retained_records_ -= chunks_[drop].n_records;
    dropped_records_ += chunks_[drop].n_records;
    ++drop;
  }
  if (drop > 0)
    chunks_.erase(chunks_.begin(),
                  chunks_.begin() + static_cast<std::ptrdiff_t>(drop));
}

void Recorder::commit(TimePoint at, ProcessId process, Component component,
                      Kind kind, ProvenanceId prov, std::uint8_t nfields) {
  if (stream_ != nullptr && stream_->finished) return;
  // Header worst case + packed fields — the whole record must land in one
  // chunk so ring mode can drop whole chunks and decoding never straddles.
  Chunk& c = writable_chunk(kMaxHeaderBytes + scratch_used_);
  bool abs = c.n_records == 0;
  std::byte* base = c.data.get() + c.used;
  std::byte* w = base;
  std::uint8_t flags = static_cast<std::uint8_t>(component);
  if (prov.valid()) flags |= kFlagProv;
  if (abs) flags |= kFlagAbsTime;
  *w++ = static_cast<std::byte>(flags);
  *w++ = static_cast<std::byte>(kind);
  auto varint = [&w](std::uint64_t v) {
    while (v >= 0x80) {
      *w++ = static_cast<std::byte>(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    *w++ = static_cast<std::byte>(v);
  };
  varint(zigzag(abs ? at.us : at.us - last_time_.us));
  varint(process.value);
  if (prov.valid()) {
    varint(prov.origin);
    varint(prov.seq);
  }
  *w++ = static_cast<std::byte>(nfields);
  std::memcpy(w, scratch_.data(), scratch_used_);
  w += scratch_used_;
  std::size_t total = static_cast<std::size_t>(w - base);
  c.used += static_cast<std::uint32_t>(total);
  c.n_records += 1;
  last_time_ = at;
  retained_records_ += 1;
}

void Recorder::append(const Record& r) {
  if (!wants(r.component)) return;
  scratch_used_ = 0;
  std::uint8_t nfields = 0;
  if (!r.detail.empty()) {
    put_field(FieldStr{Key::kText, r.detail});
    nfields = 1;
  }
  commit(r.at, r.process, r.component, r.kind, r.prov, nfields);
}

std::vector<Record> Recorder::records() const {
  std::vector<Record> out;
  out.reserve(retained_records_);
  std::string detail;  // rendered here, then copied into its Record once
  scan([&](const RecordView& v) {
    detail.clear();
    v.render_detail(detail);
    out.push_back(Record{v.at, v.process, v.component, v.kind, v.prov, detail});
  });
  return out;
}

std::size_t Recorder::payload_bytes() const {
  std::size_t total = static_cast<std::size_t>(streamed_bytes_);
  for (const Chunk& c : chunks_) total += c.used;
  return total;
}

std::vector<std::byte> Recorder::encode() const {
  std::size_t payload = 0;
  for (const Chunk& c : chunks_) payload += c.used;
  std::vector<std::byte> out;
  out.reserve(4 + 4 + payload + 1 + 8 + 8);
  for (char ch : kMagic) out.push_back(static_cast<std::byte>(ch));
  std::uint32_t v = kFormatVersion;
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  hash::Fnv1aStream h;
  for (const Chunk& c : chunks_) {
    out.insert(out.end(), c.data.get(), c.data.get() + c.used);
    h.put(c.data.get(), c.used);
  }
  out.push_back(static_cast<std::byte>(kFooterMarker));
  std::uint64_t count = retained_records_;
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::byte>((count >> (8 * i)) & 0xff));
  // The footer hash covers exactly the payload bytes written above; in
  // ring mode that is the retained suffix, not everything ever appended.
  std::uint64_t digest = h.value();
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::byte>((digest >> (8 * i)) & 0xff));
  return out;
}

bool Recorder::decode(const std::vector<std::byte>& buf, Recorder* out,
                      std::string* error) {
  PackedReader r{buf.data(), buf.data() + buf.size()};
  for (char ch : kMagic) {
    if (r.u8() != static_cast<std::uint8_t>(ch) || !r.ok()) {
      if (error) *error = "bad magic (not a rivtrace file)";
      return false;
    }
  }
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i)
    version |= static_cast<std::uint32_t>(r.u8()) << (8 * i);
  if (!r.ok()) {
    if (error) *error = "truncated header";
    return false;
  }
  if (version != kFormatVersion) {
    if (error)
      *error = "unsupported trace version " + std::to_string(version) +
               " (this build reads " + std::to_string(kFormatVersion) + ")";
    return false;
  }
  const std::byte* payload_begin = r.p;
  // Structurally walk every record up to the footer marker, validating
  // flags / kinds / keys / bounds as we go; nothing is rendered.
  std::uint64_t walked = 0;
  TimePoint last{};
  RecordView view;
  while (true) {
    if (r.remaining() == 0) {
      if (error) *error = "truncated: missing footer";
      return false;
    }
    if (static_cast<std::uint8_t>(*r.p) == kFooterMarker) {
      ++r.p;
      break;
    }
    if (!read_record(r.p, r.end, last, view)) {
      if (error)
        *error = "malformed record " + std::to_string(walked);
      return false;
    }
    ++walked;
  }
  const std::byte* payload_end = r.p - 1;  // excludes the footer marker
  std::uint64_t count = r.u64le();
  std::uint64_t footer_hash = r.u64le();
  if (!r.ok()) {
    if (error) *error = "truncated footer";
    return false;
  }
  if (r.remaining() != 0) {
    if (error) *error = "trailing bytes after footer";
    return false;
  }
  if (count != walked) {
    if (error)
      *error = "record count mismatch (footer says " +
               std::to_string(count) + ", stream holds " +
               std::to_string(walked) + ")";
    return false;
  }
  std::size_t payload_size =
      static_cast<std::size_t>(payload_end - payload_begin);
  hash::Fnv1aStream h;
  h.put(payload_begin, payload_size);
  if (h.value() != footer_hash) {
    if (error) *error = "footer hash mismatch (corrupt trace)";
    return false;
  }
  // Store the payload verbatim as one fully-used chunk: re-encoding a
  // loaded trace reproduces the input byte for byte, and the rolling
  // hash state matches a recorder that appended the same records.
  Recorder decoded(out->mask());
  if (payload_size != 0) {
    Chunk c;
    c.data = std::make_unique<std::byte[]>(payload_size);
    std::memcpy(c.data.get(), payload_begin, payload_size);
    c.capacity = static_cast<std::uint32_t>(payload_size);
    c.used = static_cast<std::uint32_t>(payload_size);
    c.n_records = static_cast<std::uint32_t>(count);
    decoded.chunks_.push_back(std::move(c));
  }
  decoded.chunk_open_ = false;  // appends after load start a fresh chunk
  decoded.retained_records_ = static_cast<std::size_t>(count);
  decoded.last_time_ = last;
  decoded.stream_hash_ = h;
  decoded.open_hashed_ = static_cast<std::uint32_t>(payload_size);
  *out = std::move(decoded);
  return true;
}

bool Recorder::save(const std::string& path, std::string* error) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  std::vector<std::byte> buf = encode();
  f.write(reinterpret_cast<const char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  if (!f) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

bool Recorder::load(const std::string& path, Recorder* out,
                    std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::vector<char> raw((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> buf(raw.size());
  if (!raw.empty()) std::memcpy(buf.data(), raw.data(), raw.size());
  return decode(buf, out, error);
}

bool Recorder::stream_to(const std::string& path, std::string* error) {
  auto st = std::make_unique<StreamState>();
  st->file.open(path, std::ios::binary | std::ios::trunc);
  if (!st->file) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  st->path = path;
  char header[8];
  std::memcpy(header, kMagic, 4);
  std::uint32_t v = kFormatVersion;
  for (int i = 0; i < 4; ++i)
    header[4 + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  st->file.write(header, 8);
  stream_ = std::move(st);
  return true;
}

bool Recorder::finish(std::string* error) {
  if (stream_ == nullptr || stream_->finished) return true;
  flush_open_hash();  // catch the rolling hash up with the tail chunk
  // Flush the open tail chunk (bypass seal_chunk's recycling — we are
  // done appending).
  for (const Chunk& c : chunks_) {
    stream_->file.write(reinterpret_cast<const char*>(c.data.get()),
                        static_cast<std::streamsize>(c.used));
    streamed_bytes_ += c.used;
    streamed_records_ += c.n_records;
  }
  retained_records_ = 0;
  chunks_.clear();
  chunk_open_ = false;
  char footer[17];
  footer[0] = static_cast<char>(kFooterMarker);
  std::uint64_t count = streamed_records_;
  // All appended bytes went to the file, so the rolling hash is exactly
  // the footer hash.
  std::uint64_t digest = stream_hash_.value();
  for (int i = 0; i < 8; ++i) {
    footer[1 + i] = static_cast<char>((count >> (8 * i)) & 0xff);
    footer[9 + i] = static_cast<char>((digest >> (8 * i)) & 0xff);
  }
  stream_->file.write(footer, 17);
  stream_->file.flush();
  bool ok = static_cast<bool>(stream_->file);
  if (!ok && error) *error = "short write to " + stream_->path;
  stream_->file.close();
  stream_->finished = true;
  return ok;
}

Recorder* current() { return detail_impl::g_current; }

Scope::Scope(Recorder& r) : prev_(detail_impl::g_current) {
  detail_impl::g_current = &r;
}
Scope::~Scope() { detail_impl::g_current = prev_; }

bool active(Component c) {
  return detail_impl::g_current != nullptr &&
         detail_impl::g_current->wants(c);
}

void emit_text(TimePoint at, ProcessId process, Component component,
               Kind kind, std::string_view text) {
  emit(at, process, component, kind, fs(Key::kText, text));
}
void emit_text(TimePoint at, ProcessId process, Component component,
               Kind kind, ProvenanceId prov, std::string_view text) {
  emit(at, process, component, kind, prov, fs(Key::kText, text));
}

}  // namespace riv::trace
