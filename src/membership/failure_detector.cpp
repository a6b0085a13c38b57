#include "membership/failure_detector.hpp"

#include "common/log.hpp"
#include "trace/trace.hpp"

namespace riv::membership {

FailureDetector::FailureDetector(sim::ProcessTimers& timers,
                                 net::Transport& transport,
                                 std::vector<ProcessId> all_processes,
                                 Config config)
    : timers_(&timers),
      transport_(&transport),
      self_(transport.local()),
      all_(std::move(all_processes)),
      config_(config) {}

void FailureDetector::start() {
  if (started_) return;
  started_ = true;
  // Optimistic initial view: all configured processes presumed alive.
  TimePoint now = timers_->now();
  for (ProcessId p : all_) {
    if (p != self_) last_heard_[p] = now;
  }
  recompute_view();
  tick();
}

void FailureDetector::tick() {
  // Send keep-alives. The frame is identical for every peer (same
  // timestamp, same piggyback), so encode once and share the buffer.
  std::vector<std::byte> extra;
  if (provider_) extra = provider_();
  BinaryWriter w;
  w.time_point(timers_->now());
  w.bytes(extra);
  net::Payload payload = w.take();
  for (ProcessId p : all_) {
    if (p == self_) continue;
    transport_->send(p, net::MsgType::kKeepAlive, payload);
  }
  recompute_view();
  tick_timer_ = timers_->schedule_after(config_.period, [this] { tick(); });
}

void FailureDetector::clone_state(BinaryWriter& w) const {
  w.u8(started_ ? 1 : 0);
  w.u64(last_heard_.size());
  for (const auto& [p, t] : last_heard_) {
    w.process_id(p);
    w.time_point(t);
  }
  w.u64(view_flat_.size());
  for (ProcessId p : view_flat_) w.process_id(p);
  timers_->sim().encode_timer(w, tick_timer_);
}

void FailureDetector::restore_clone(BinaryReader& r) {
  started_ = r.u8() != 0;
  last_heard_.clear();
  const std::uint64_t n_heard = r.u64();
  for (std::uint64_t i = 0; i < n_heard; ++i) {
    ProcessId p = r.process_id();
    last_heard_[p] = r.time_point();
  }
  view_flat_.clear();
  const std::uint64_t n_view = r.u64();
  for (std::uint64_t i = 0; i < n_view; ++i)
    view_flat_.push_back(r.process_id());
  view_.clear();
  view_.insert(view_flat_.begin(), view_flat_.end());
  if (sim::TimerId id = sim::Simulation::decode_timer(r))
    tick_timer_ = timers_->restore_at(id, [this] { tick(); });
}

void FailureDetector::on_keepalive(const net::Message& msg) {
  last_heard_[msg.src] = timers_->now();
  if (handler_) {
    BinaryReader r(msg.payload);
    (void)r.time_point();  // sender timestamp (unused; clocks are synced)
    // The piggyback is length-prefixed; decode it in place from the frame
    // buffer instead of copying it out first.
    std::uint32_t extra_len = r.u32();
    if (extra_len > 0) handler_(msg.src, r);
  }
  recompute_view();
}

void FailureDetector::recompute_view() {
  // Build the candidate view into a scratch vector — sorted for free,
  // since last_heard_ iterates in ProcessId order and self_ is merged at
  // its rank — and only materialize the std::set when membership changed.
  scratch_.clear();
  TimePoint now = timers_->now();
  bool self_placed = false;
  for (const auto& [p, heard] : last_heard_) {
    if (p == self_) continue;  // p_i never suspects itself (§4.1)
    if (!self_placed && self_ < p) {
      scratch_.push_back(self_);
      self_placed = true;
    }
    if (now - heard <= config_.timeout) scratch_.push_back(p);
  }
  if (!self_placed) scratch_.push_back(self_);
  if (scratch_ != view_flat_) {
    view_flat_ = scratch_;
    view_.clear();
    view_.insert(scratch_.begin(), scratch_.end());
    RIV_DEBUG("membership", riv::to_string(self_) << " view size "
                                                  << view_.size());
    if (trace::active(trace::Component::kMembership)) {
      // view_flat_ is sorted, so packing it matches the set's rendering.
      trace::emit(now, self_, trace::Component::kMembership,
                  trace::Kind::kView,
                  trace::fv(trace::Key::kView, view_flat_));
    }
    if (on_view_change_) on_view_change_(view_);
  }
}

}  // namespace riv::membership
