#include "store/replicated_store.hpp"

#include "common/assert.hpp"

namespace riv::store {
namespace {

constexpr const char* kStablePrefix = "kv/";

}  // namespace

ReplicatedStore::ReplicatedStore(Hooks hooks) : hooks_(std::move(hooks)) {
  RIV_ASSERT(hooks_.timers != nullptr, "store needs timers");
}

void ReplicatedStore::start() {
  recover();
  hooks_.timers->schedule_after(kSyncPeriod, kSyncTimer);
}

void ReplicatedStore::put(const std::string& key, double value) {
  Entry e;
  e.value = value;
  e.written_at = hooks_.timers->now();
  e.seq = ++write_seq_;
  e.writer = hooks_.self;
  ++writes_;
  if (!merge(key, e)) return;  // an even-newer write already landed

  // Best-effort push to everyone currently visible; anti-entropy covers
  // whoever this misses.
  if (hooks_.send) {
    net::Payload payload = encode(Update{key, e});  // shared by every peer
    for (ProcessId p : hooks_.view()) {
      if (p != hooks_.self) hooks_.send(p, /*is_sync=*/false, payload);
    }
  }
}

std::optional<double> ReplicatedStore::get(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second.value;
}

std::vector<std::string> ReplicatedStore::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(key);
  return out;
}

bool ReplicatedStore::merge(const std::string& key, const Entry& incoming) {
  auto it = entries_.find(key);
  if (it != entries_.end() && !incoming.dominates(it->second)) {
    ++merges_ignored_;
    return false;
  }
  entries_[key] = incoming;
  ++merges_applied_;
  persist(key, incoming);
  return true;
}

void ReplicatedStore::persist(const std::string& key, const Entry& e) {
  if (hooks_.stable == nullptr) return;
  std::vector<std::byte> bytes;
  encode(Update{key, e}, bytes);
  hooks_.stable->put(kStablePrefix + key, std::move(bytes));
}

void ReplicatedStore::recover() {
  if (hooks_.stable == nullptr) return;
  for (const std::string& skey :
       hooks_.stable->keys_with_prefix(kStablePrefix)) {
    auto raw = hooks_.stable->get(skey);
    RIV_ASSERT(raw.has_value(), "key listed but missing");
    // A record that does not decode is dropped, like a frame.
    Update u;
    if (!decode(*raw, u)) continue;
    auto it = entries_.find(u.key);
    if (it == entries_.end() || u.entry.dominates(it->second))
      entries_[u.key] = u.entry;
  }
}

void ReplicatedStore::anti_entropy() {
  // Push the whole state to the ring successor. Home-automation state is
  // a handful of registers; a digest exchange would only pay off at much
  // larger scale.
  const std::set<ProcessId>& view = hooks_.view();
  if (hooks_.send && view.size() > 1 && !entries_.empty()) {
    auto it = view.upper_bound(hooks_.self);
    if (it == view.end()) it = view.begin();
    if (*it != hooks_.self) {
      Batch batch;
      batch.updates.reserve(entries_.size());
      for (const auto& [key, entry] : entries_)
        batch.updates.push_back({key, entry});
      hooks_.send(*it, /*is_sync=*/true, encode(batch));
    }
  }
  hooks_.timers->schedule_after(kSyncPeriod, kSyncTimer);
}

void ReplicatedStore::clone_state(BinaryWriter& w) const {
  io_state(w, *this);
}

void ReplicatedStore::restore_clone(BinaryReader& r) { io_state(r, *this); }

template <class A, class Self>
void ReplicatedStore::io_state(A& a, Self& s) {
  io(a, s.write_seq_);
  io(a, s.writes_);
  io(a, s.merges_applied_);
  io(a, s.merges_ignored_);
  io(a, s.entries_);
}

bool ReplicatedStore::on_update(const std::vector<std::byte>& payload) {
  Update u;
  if (!decode(payload, u)) return false;
  merge(u.key, u.entry);
  return true;
}

bool ReplicatedStore::on_sync(const std::vector<std::byte>& payload) {
  Batch batch;
  if (!decode(payload, batch)) return false;
  for (const Update& u : batch.updates) merge(u.key, u.entry);
  return true;
}

}  // namespace riv::store
