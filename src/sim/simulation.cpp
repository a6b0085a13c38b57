#include "sim/simulation.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/assert.hpp"
#include "common/codec.hpp"
#include "trace/trace.hpp"

namespace riv::sim {

namespace {
constexpr std::int64_t kMaxTime = std::numeric_limits<std::int64_t>::max();
}  // namespace

Simulation::Simulation(std::uint64_t seed)
    : rng_(seed), id_map_(1024, kNil) {
  for (int l = 0; l < kLevels; ++l) {
    bitmap_[l] = 0;
    for (int s = 0; s < kSlotsPerLevel; ++s) {
      slot_head_[l][s] = kNil;
      slot_tail_[l][s] = kNil;
    }
  }
}

// --- slab ------------------------------------------------------------------

std::uint32_t Simulation::alloc_node() {
  if (free_head_ != kNil) {
    std::uint32_t idx = free_head_;
    free_head_ = nodes_[idx].next;
    return idx;
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void Simulation::free_node(std::uint32_t idx) {
  Node& n = nodes_[idx];
  n.cb = nullptr;
  n.next = free_head_;
  free_head_ = idx;
}

// --- TimerId ring ----------------------------------------------------------
//
// Ids are issued monotonically, so id -> node is a ring indexed by
// id & (capacity - 1) over the live window [id_base_, next_id_). Slots
// outside the window are kNil by construction, which is what lets the
// base chase forward past completed ids. Capacity is bounded by the id
// *span*, not the live count: one immortal timer under heavy churn keeps
// the window wide (4 bytes per id of span — fine for simulation-scale
// runs, noted here in case someone reuses this for a long-running server).

std::uint32_t Simulation::id_lookup(TimerId id) const {
  if (id < id_base_ || id >= next_id_) return kNil;
  return id_map_[id & (id_map_.size() - 1)];
}

void Simulation::id_store(TimerId id, std::uint32_t node) {
  if (id - id_base_ >= id_map_.size()) id_grow();
  id_map_[id & (id_map_.size() - 1)] = node;
}

void Simulation::id_clear(TimerId id) {
  id_map_[id & (id_map_.size() - 1)] = kNil;
  while (id_base_ < next_id_ &&
         id_map_[id_base_ & (id_map_.size() - 1)] == kNil)
    ++id_base_;
}

void Simulation::id_grow() {
  // Only called from id_store while storing id == next_id_ - 1, so every
  // id in [id_base_, next_id_ - 1) has a valid slot to carry over.
  std::size_t cap = id_map_.size() * 2;
  while (next_id_ - id_base_ >= cap) cap *= 2;
  std::vector<std::uint32_t> fresh(cap, kNil);
  for (TimerId i = id_base_; i + 1 < next_id_; ++i)
    fresh[i & (cap - 1)] = id_map_[i & (id_map_.size() - 1)];
  id_map_ = std::move(fresh);
}

// --- wheel -----------------------------------------------------------------

void Simulation::place(std::uint32_t idx) {
  Node& n = nodes_[idx];
  std::int64_t delta = n.t - cur_;
  RIV_ASSERT(delta >= 0, "timer wheel: placing a node behind the cursor");
  if (delta >= kWheelHorizon) {
    overflow_.push(HeapEntry{n.t, n.seq, idx});
    return;
  }
  int level = 0;
  while (delta >= (std::int64_t{1} << (kLevelBits * (level + 1)))) ++level;
  // Bump out of the cursor's slot unless the node lies in the cursor's
  // current window there (then it cascades down, never re-lands).
  for (; level < kLevels; ++level) {
    int shift = kLevelBits * level;
    if (((n.t ^ cur_) >> shift) & (kSlotsPerLevel - 1)) break;
    if ((n.t >> (shift + kLevelBits)) == (cur_ >> (shift + kLevelBits)))
      break;
  }
  if (level == kLevels) {
    // Cursor-slot collision at the top level: the node is in a future
    // top-level revolution, so the heap owns it until the cursor gets
    // there (promote_overflow's revolution test keeps it out until then).
    overflow_.push(HeapEntry{n.t, n.seq, idx});
    return;
  }
  int shift = kLevelBits * level;
  int slot = static_cast<int>((n.t >> shift) & (kSlotsPerLevel - 1));
  n.next = kNil;
  if (slot_head_[level][slot] == kNil)
    slot_head_[level][slot] = idx;
  else
    nodes_[slot_tail_[level][slot]].next = idx;
  slot_tail_[level][slot] = idx;
  bitmap_[level] |= std::uint64_t{1} << slot;
  ++wheel_count_;
}

void Simulation::promote_overflow() {
  // Pull in everything from the cursor's current top-level revolution.
  // (Not simply everything within the horizon: a node just past the
  // revolution boundary could land back in the cursor's top-level slot,
  // and place() would bounce it straight back here.)
  constexpr int kTopShift = kLevelBits * kLevels;
  while (!overflow_.empty() &&
         (overflow_.top().t >> kTopShift) == (cur_ >> kTopShift)) {
    std::uint32_t idx = overflow_.top().node;
    overflow_.pop();
    if (nodes_[idx].cancelled)
      free_node(idx);
    else
      place(idx);
  }
}

bool Simulation::advance(std::int64_t cap) {
  for (;;) {
    if (wheel_count_ == 0) {
      if (overflow_.empty()) return false;
      std::int64_t top = overflow_.top().t;
      if (top > cap) return false;
      cur_ = top;
      promote_overflow();
      continue;
    }
    promote_overflow();

    // Level-0 candidate: an exact firing time.
    std::int64_t t0 = -1;
    int p0 = 0;
    if (std::uint64_t bm = bitmap_[0]; bm != 0) {
      int c0 = static_cast<int>(cur_ & (kSlotsPerLevel - 1));
      std::int64_t base = cur_ & ~std::int64_t{kSlotsPerLevel - 1};
      if (std::uint64_t ahead = bm >> c0; ahead != 0) {
        p0 = c0 + std::countr_zero(ahead);
        t0 = base + p0;
      } else {
        p0 = std::countr_zero(bm);
        t0 = base + kSlotsPerLevel + p0;  // wrapped into the next lap
      }
    }

    // Higher levels: window-start lower bounds (candidates to cascade).
    std::int64_t best_w = kMaxTime;
    int best_l = -1;
    int best_q = 0;
    for (int l = 1; l < kLevels; ++l) {
      std::uint64_t bm = bitmap_[l];
      if (bm == 0) continue;
      int shift = kLevelBits * l;
      int cl = static_cast<int>((cur_ >> shift) & (kSlotsPerLevel - 1));
      int q;
      std::int64_t w;
      std::int64_t rev = std::int64_t{1} << (shift + kLevelBits);
      std::int64_t rev_base = cur_ & ~(rev - 1);
      if (std::uint64_t ahead = bm >> cl; ahead != 0) {
        q = cl + std::countr_zero(ahead);
        w = rev_base + (static_cast<std::int64_t>(q) << shift);
      } else {
        q = std::countr_zero(bm);
        w = rev_base + rev + (static_cast<std::int64_t>(q) << shift);
      }
      if (w < best_w) {
        best_w = w;
        best_l = l;
        best_q = q;
      }
    }

    // Nodes still in the heap can precede a next-revolution window start,
    // so the heap top competes as a third candidate.
    std::int64_t heap_t = overflow_.empty() ? kMaxTime : overflow_.top().t;

    if (t0 >= 0 && t0 < best_w && t0 < heap_t) {
      if (t0 > cap) return false;
      cur_ = t0;
      std::uint32_t idx = slot_head_[0][p0];
      slot_head_[0][p0] = kNil;
      slot_tail_[0][p0] = kNil;
      bitmap_[0] &= ~(std::uint64_t{1} << p0);
      due_.clear();
      due_head_ = 0;
      while (idx != kNil) {
        std::uint32_t nxt = nodes_[idx].next;
        --wheel_count_;
        if (nodes_[idx].cancelled) {
          free_node(idx);
        } else {
          RIV_ASSERT(nodes_[idx].t == t0, "timer wheel slot/time mismatch");
          due_.push_back(idx);
        }
        idx = nxt;
      }
      if (due_.empty()) continue;  // tombstone-only slot; keep looking
      std::sort(due_.begin(), due_.end(),
                [this](std::uint32_t a, std::uint32_t b) {
                  return nodes_[a].seq < nodes_[b].seq;
                });
      due_time_ = t0;
      return true;
    }

    if (heap_t <= best_w) {
      // Next event is still beyond the wheel: jump the cursor so
      // promotion can pull it in. Safe — every wheel candidate is later.
      if (heap_t > cap) return false;
      cur_ = heap_t;
      promote_overflow();
      continue;
    }

    RIV_ASSERT(best_l >= 0, "timer wheel: occupancy with no candidate");
    // Cascade the earliest higher-level slot. On a tie with t0 this runs
    // first so same-time nodes merge into one level-0 slot and fire in
    // seq order.
    if (best_w > cap) return false;
    if (best_w > cur_) cur_ = best_w;
    std::uint32_t idx = slot_head_[best_l][best_q];
    slot_head_[best_l][best_q] = kNil;
    slot_tail_[best_l][best_q] = kNil;
    bitmap_[best_l] &= ~(std::uint64_t{1} << best_q);
    while (idx != kNil) {
      std::uint32_t nxt = nodes_[idx].next;
      --wheel_count_;
      if (nodes_[idx].cancelled)
        free_node(idx);
      else
        place(idx);
      idx = nxt;
    }
  }
}

// --- public API ------------------------------------------------------------

TimerId Simulation::schedule_at(TimePoint t, Callback cb) {
  RIV_ASSERT(t >= now_, "cannot schedule in the past");
  TimerId id = next_id_++;
  std::uint32_t idx = alloc_node();
  Node& n = nodes_[idx];
  n.t = t.us;
  n.seq = next_seq_++;
  n.id = id;
  n.cancelled = false;
  n.cb = std::move(cb);
  id_store(id, idx);
  place(idx);
  ++live_count_;
  return id;
}

void Simulation::cancel(TimerId id) {
  std::uint32_t idx = id_lookup(id);
  if (idx == kNil) return;
  Node& n = nodes_[idx];
  n.cancelled = true;
  n.cb = nullptr;  // release captured state now, not at slot drain
  --live_count_;
  id_clear(id);
}

bool Simulation::is_pending(TimerId id) const { return id_lookup(id) != kNil; }

bool Simulation::fire_next(std::int64_t cap) {
  for (;;) {
    while (due_head_ < due_.size()) {
      std::uint32_t idx = due_[due_head_];
      if (nodes_[idx].cancelled) {
        // Cancelled after the batch formed (e.g. by an earlier callback
        // of the same instant): drop without advancing time.
        ++due_head_;
        free_node(idx);
        continue;
      }
      if (due_time_ > cap) return false;
      ++due_head_;
      now_ = TimePoint{due_time_};
      ++events_fired_;
      --live_count_;
      TimerId id = nodes_[idx].id;
      Callback cb = std::move(nodes_[idx].cb);
      id_clear(id);
      free_node(idx);
      if (trace::active(trace::Component::kSim)) {
        trace::emit(now_, ProcessId{0}, trace::Component::kSim,
                    trace::Kind::kTimerFire, trace::fu(trace::Key::kTimer, id));
      }
      cb();
      return true;
    }
    due_.clear();
    due_head_ = 0;
    if (!advance(cap)) return false;
  }
}

bool Simulation::step() { return fire_next(kMaxTime); }

void Simulation::clone_state(BinaryWriter& w) const {
  RIV_ASSERT(due_head_ == due_.size(), "state capture mid-batch");
  w.i64(now_.us);
  w.u64(next_seq_);
  w.u64(events_fired_);
  w.u64(next_id_);
  for (std::uint64_t word : rng_.state()) w.u64(word);
  // A node is live iff the id ring still points at it and it was not
  // cancelled (fire and cancel both clear the ring entry; freed slab
  // slots keep stale ids that no longer resolve to them).
  std::vector<const Node*> live;
  live.reserve(live_count_);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.cancelled || n.id == 0) continue;
    if (id_lookup(n.id) != i) continue;
    live.push_back(&n);
  }
  RIV_ASSERT(live.size() == live_count_, "kernel live-timer count drifted");
  std::sort(live.begin(), live.end(),
            [](const Node* a, const Node* b) { return a->id < b->id; });
  w.u64(live.size());
  for (const Node* n : live) {
    w.u64(n->id);
    w.i64(n->t);
    w.u64(n->seq);
  }
}

void Simulation::begin_restore(BinaryReader& r) {
  RIV_ASSERT(!in_restore_, "nested kernel restore");
  RIV_ASSERT(live_count_ == 0,
             "kernel restore target must be a fresh, not-yet-started "
             "deployment (restored ids would collide otherwise)");
  now_ = TimePoint{r.i64()};
  cur_ = now_.us;
  next_seq_ = r.u64();
  events_fired_ = r.u64();
  next_id_ = r.u64();
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = r.u64();
  rng_.set_state(rng_state);
  const std::uint64_t n_live = r.u64();
  restoring_.clear();
  restoring_.reserve(std::min<std::uint64_t>(n_live, r.remaining()));
  for (std::uint64_t i = 0; i < n_live && r.ok(); ++i) {
    LiveTimer lt{r.u64(), r.i64(), r.u64()};
    RIV_ASSERT(lt.id >= 1 && lt.id < next_id_ && lt.seq < next_seq_ &&
                   lt.t >= now_.us,
               "restored timer outside the captured window");
    RIV_ASSERT(restoring_.empty() || restoring_.back().id < lt.id,
               "captured timer list not sorted by id");
    restoring_.push_back(lt);
  }
  restored_count_ = 0;

  // Wipe storage wholesale: tombstones and free lists are artifacts of
  // the target's (empty) history and must not leak into the clone.
  nodes_.clear();
  free_head_ = kNil;
  for (int l = 0; l < kLevels; ++l) {
    bitmap_[l] = 0;
    for (int s = 0; s < kSlotsPerLevel; ++s) {
      slot_head_[l][s] = kNil;
      slot_tail_[l][s] = kNil;
    }
  }
  wheel_count_ = 0;
  overflow_ = {};
  due_.clear();
  due_head_ = 0;
  live_count_ = 0;
  // Empty id window at the restored high end; schedule_restored walks
  // id_base_ down as owners re-register their (older) live ids.
  id_base_ = next_id_;
  std::fill(id_map_.begin(), id_map_.end(), kNil);
  in_restore_ = true;
}

TimerId Simulation::schedule_restored(TimerId id, Callback cb) {
  RIV_ASSERT(in_restore_, "schedule_restored outside a restore window");
  auto it = std::lower_bound(
      restoring_.begin(), restoring_.end(), id,
      [](const LiveTimer& lt, TimerId x) { return lt.id < x; });
  RIV_ASSERT(it != restoring_.end() && it->id == id,
             "restored timer was not live at capture");
  if (id < id_base_) {
    // Extend the ring window down to cover this id (capacity is bounded
    // by id span; see the ring comment above).
    std::size_t span = static_cast<std::size_t>(next_id_ - id);
    if (span > id_map_.size()) {
      std::size_t cap = id_map_.size();
      while (span > cap) cap *= 2;
      std::vector<std::uint32_t> fresh(cap, kNil);
      for (TimerId i = id_base_; i < next_id_; ++i) {
        std::uint32_t v = id_map_[i & (id_map_.size() - 1)];
        if (v != kNil) fresh[i & (cap - 1)] = v;
      }
      id_map_ = std::move(fresh);
    }
    id_base_ = id;
  }
  RIV_ASSERT(id_lookup(id) == kNil, "duplicate restored timer id");
  std::uint32_t idx = alloc_node();
  Node& n = nodes_[idx];
  n.t = it->t;
  n.seq = it->seq;
  n.id = id;
  n.cancelled = false;
  n.cb = std::move(cb);
  id_map_[id & (id_map_.size() - 1)] = idx;
  place(idx);
  ++live_count_;
  ++restored_count_;
  return id;
}

void Simulation::finish_restore() {
  RIV_ASSERT(in_restore_, "finish_restore outside a restore window");
  // Every restored id was found in the list and none twice, so equal
  // counts mean equal sets.
  RIV_ASSERT(restored_count_ == restoring_.size(),
             "restored timer set differs from the captured one: a timer "
             "owner outside the clone set was pending at capture");
  restoring_.clear();
  in_restore_ = false;
}

bool Simulation::encode_timer(BinaryWriter& w, TimerId id) const {
  const bool live = is_pending(id);
  w.u8(live ? 1 : 0);
  if (live) w.u64(id);
  return live;
}

TimerId Simulation::decode_timer(BinaryReader& r) {
  return r.u8() != 0 ? r.u64() : 0;
}

void Simulation::run_until(TimePoint t) {
  while (fire_next(t.us)) {
  }
  if (now_ < t) now_ = t;
}

void Simulation::run_all() {
  while (step()) {
  }
}

// --- ProcessTimers ---------------------------------------------------------

TimerId ProcessTimers::schedule_after(Duration d, Simulation::Callback cb) {
  garbage_collect();
  TimerId id = sim_->schedule_after(d, std::move(cb));
  owned_.push_back(id);
  return id;
}

TimerId ProcessTimers::schedule_at(TimePoint t, Simulation::Callback cb) {
  garbage_collect();
  TimerId id = sim_->schedule_at(t, std::move(cb));
  owned_.push_back(id);
  return id;
}

TimerId ProcessTimers::restore_at(TimerId id, Simulation::Callback cb) {
  sim_->schedule_restored(id, std::move(cb));
  owned_.push_back(id);
  return id;
}

void ProcessTimers::cancel(TimerId id) {
  sim_->cancel(id);
  auto it = std::find(owned_.begin(), owned_.end(), id);
  if (it != owned_.end()) {
    *it = owned_.back();  // ids are unique; order of owned_ is irrelevant
    owned_.pop_back();
  }
}

void ProcessTimers::cancel_all() {
  for (TimerId id : owned_) sim_->cancel(id);
  owned_.clear();
}

void ProcessTimers::garbage_collect() {
  if (owned_.size() < gc_threshold_) return;
  owned_.erase(std::remove_if(owned_.begin(), owned_.end(),
                              [&](TimerId id) { return !sim_->is_pending(id); }),
               owned_.end());
  gc_threshold_ = std::max<std::size_t>(64, owned_.size() * 2);
}

}  // namespace riv::sim
