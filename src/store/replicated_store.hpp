// Replicated application state (extension).
//
// The paper keeps Rivulet's core stateless (§3.2): "applications are free
// to use existing distributed storage systems to replicate state." This
// module supplies that missing piece natively so stateful apps (running
// totals for energy billing, hysteresis for HVAC, ...) survive logic-node
// failover: a last-writer-wins replicated key-value register set,
// replicated with the same machinery Rivulet already relies on —
// best-effort push on write plus periodic ring-successor anti-entropy,
// persisted to the process's stable store across crashes.
//
// Consistency: eventual, LWW per key ordered by (timestamp, writer id).
// That matches the home setting (no quorums, any number of processes) and
// the kinds of state Table 1 apps keep.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "net/payload.hpp"
#include "sim/simulation.hpp"
#include "sim/stable_store.hpp"

namespace riv::store {

struct Entry {
  double value{0.0};
  TimePoint written_at{};
  std::uint32_t seq{0};  // per-writer write counter
  ProcessId writer{};

  // LWW dominance: later timestamp wins; among writes with the same
  // timestamp a writer's later write beats its earlier one (seq), and the
  // writer id breaks the remaining cross-writer ties deterministically.
  bool dominates(const Entry& other) const {
    if (written_at != other.written_at)
      return written_at > other.written_at;
    if (writer == other.writer) return seq > other.seq;
    return writer > other.writer;
  }
};

void encode_entry(BinaryWriter& w, const std::string& key, const Entry& e);

class ReplicatedStore {
 public:
  struct Hooks {
    ProcessId self{};
    // Push an encoded update/sync payload to a peer; the runtime binds
    // this to its transport (kStorePut / kStoreSync messages). Fan-out
    // paths reuse one Payload for every peer.
    std::function<void(ProcessId, bool is_sync, net::Payload)> send;
    std::function<const std::set<ProcessId>&()> view;
    sim::ProcessTimers* timers{nullptr};
    sim::StableStore* stable{nullptr};  // may be null (volatile store)
    Duration sync_period{seconds(5)};
  };

  explicit ReplicatedStore(Hooks hooks);

  // Arm periodic anti-entropy and reload persisted state.
  void start();

  // --- application API -------------------------------------------------
  void put(const std::string& key, double value);
  std::optional<double> get(const std::string& key) const;
  std::size_t size() const { return entries_.size(); }
  std::vector<std::string> keys() const;

  // --- replication plumbing (called by the runtime) ---------------------
  void on_update(const std::vector<std::byte>& payload);  // single entry
  void on_sync(const std::vector<std::byte>& payload);    // batch

  std::uint64_t writes() const { return writes_; }
  std::uint64_t merges_applied() const { return merges_applied_; }
  std::uint64_t merges_ignored() const { return merges_ignored_; }

  // --- state capture (DESIGN.md §13) ---------------------------------
  // Every replicated register, the write counters (entries_ is ordered,
  // so this is content-deterministic) and the anti-entropy timer.
  // Restore requires a constructed-but-not-started store whose hooks are
  // already wired (the runtime installs the closures first).
  void clone_state(BinaryWriter& w) const {
    w.u32(write_seq_);
    w.u64(writes_);
    w.u64(merges_applied_);
    w.u64(merges_ignored_);
    w.u64(entries_.size());
    for (const auto& [key, e] : entries_) {
      w.str(key);
      w.f64(e.value);
      w.time_point(e.written_at);
      w.u32(e.seq);
      w.process_id(e.writer);
    }
    hooks_.timers->sim().encode_timer(w, sync_timer_);
  }
  void restore_clone(BinaryReader& r);

 private:
  bool merge(const std::string& key, const Entry& incoming);
  void persist(const std::string& key, const Entry& e);
  void recover();
  void anti_entropy();
  std::vector<std::byte> encode_batch() const;

  Hooks hooks_;
  std::map<std::string, Entry> entries_;
  std::uint32_t write_seq_{0};
  std::uint64_t writes_{0};
  std::uint64_t merges_applied_{0};
  std::uint64_t merges_ignored_{0};
  sim::TimerId sync_timer_{0};
};

}  // namespace riv::store
