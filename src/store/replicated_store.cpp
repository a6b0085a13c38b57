#include "store/replicated_store.hpp"

#include "common/assert.hpp"

namespace riv::store {
namespace {

constexpr const char* kStablePrefix = "kv/";

Entry decode_entry(BinaryReader& r, std::string* key) {
  *key = r.str();
  Entry e;
  e.value = r.f64();
  e.written_at = r.time_point();
  e.seq = r.u32();
  e.writer = r.process_id();
  return e;
}

}  // namespace

void encode_entry(BinaryWriter& w, const std::string& key, const Entry& e) {
  w.str(key);
  w.f64(e.value);
  w.time_point(e.written_at);
  w.u32(e.seq);
  w.process_id(e.writer);
}

ReplicatedStore::ReplicatedStore(Hooks hooks) : hooks_(std::move(hooks)) {
  RIV_ASSERT(hooks_.timers != nullptr, "store needs timers");
}

void ReplicatedStore::start() {
  recover();
  sync_timer_ = hooks_.timers->schedule_after(hooks_.sync_period, [this] {
    anti_entropy();
  });
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
    BinaryWriter w;
    encode_entry(w, key, e);
    net::Payload payload = w.take();  // shared by every visible peer
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
  BinaryWriter w;
  encode_entry(w, key, e);
  hooks_.stable->put(kStablePrefix + key, w.take());
}

void ReplicatedStore::recover() {
  if (hooks_.stable == nullptr) return;
  for (const std::string& skey :
       hooks_.stable->keys_with_prefix(kStablePrefix)) {
    auto raw = hooks_.stable->get(skey);
    RIV_ASSERT(raw.has_value(), "key listed but missing");
    BinaryReader r(*raw);
    std::string key;
    Entry e = decode_entry(r, &key);
    RIV_ASSERT(r.ok(), "corrupt stored kv entry");
    auto it = entries_.find(key);
    if (it == entries_.end() || e.dominates(it->second)) entries_[key] = e;
  }
}

std::vector<std::byte> ReplicatedStore::encode_batch() const {
  BinaryWriter w;
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& [key, entry] : entries_) encode_entry(w, key, entry);
  return w.take();
}

void ReplicatedStore::anti_entropy() {
  // Push the whole state to the ring successor. Home-automation state is
  // a handful of registers; a digest exchange would only pay off at much
  // larger scale.
  const std::set<ProcessId>& view = hooks_.view();
  if (hooks_.send && view.size() > 1 && !entries_.empty()) {
    auto it = view.upper_bound(hooks_.self);
    if (it == view.end()) it = view.begin();
    if (*it != hooks_.self)
      hooks_.send(*it, /*is_sync=*/true, encode_batch());
  }
  sync_timer_ = hooks_.timers->schedule_after(hooks_.sync_period, [this] {
    anti_entropy();
  });
}

void ReplicatedStore::restore_clone(BinaryReader& r) {
  write_seq_ = r.u32();
  writes_ = r.u64();
  merges_applied_ = r.u64();
  merges_ignored_ = r.u64();
  entries_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.str();
    Entry e;
    e.value = r.f64();
    e.written_at = r.time_point();
    e.seq = r.u32();
    e.writer = r.process_id();
    entries_[key] = e;
  }
  if (sim::TimerId id = sim::Simulation::decode_timer(r))
    sync_timer_ = hooks_.timers->restore_at(id, [this] { anti_entropy(); });
}

void ReplicatedStore::on_update(const std::vector<std::byte>& payload) {
  BinaryReader r(payload);
  std::string key;
  Entry e = decode_entry(r, &key);
  if (r.ok()) merge(key, e);
}

void ReplicatedStore::on_sync(const std::vector<std::byte>& payload) {
  BinaryReader r(payload);
  std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    std::string key;
    Entry e = decode_entry(r, &key);
    if (r.ok()) merge(key, e);
  }
}

}  // namespace riv::store
