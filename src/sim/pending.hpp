// Deliveries in flight, owned by the component that scheduled them.
//
// A frame on the air, a sensor event on a radio link and a command on its
// way to an actuator are each a pending kernel timer plus the value it
// carries. The owner keeps the value in a slot of its PendingTable and the
// timer closure captures only [this, slot]: the closure stays inside
// std::function's small buffer, and the owner can encode every value in
// the air with its timer id and rebuild the closures on restore
// (DESIGN.md §13). Slots are recycled through a free list, so a steady
// state of deliveries allocates nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace riv::sim {

template <typename T>
class PendingTable {
 public:
  struct Entry {
    TimerId timer{0};  // 0 while the slot is free
    T value{};
  };

  // Store `value` in a free slot and return the slot; the caller
  // schedules the carrying timer and records its id with bind().
  std::uint32_t put(T value) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    entries_[slot].value = std::move(value);
    ++live_;
    return slot;
  }
  void bind(std::uint32_t slot, TimerId timer) { entries_[slot].timer = timer; }

  // The carrying timer fired: hand the value back and free the slot.
  T take(std::uint32_t slot) {
    Entry& e = entries_[slot];
    e.timer = 0;
    free_.push_back(slot);
    --live_;
    return std::move(e.value);
  }

  // The owner cancelled every timer it holds.
  void clear() {
    entries_.clear();
    free_.clear();
    live_ = 0;
  }

  std::size_t size() const { return live_; }

  // Live entries in timer-id order: scheduling order, and the canonical
  // encoding order (slot order depends on free-list history).
  std::vector<const Entry*> by_timer() const {
    std::vector<const Entry*> out;
    out.reserve(live_);
    for (const Entry& e : entries_)
      if (e.timer != 0) out.push_back(&e);
    std::sort(out.begin(), out.end(), [](const Entry* a, const Entry* b) {
      return a->timer < b->timer;
    });
    return out;
  }

 private:
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;
  std::size_t live_{0};
};

}  // namespace riv::sim
