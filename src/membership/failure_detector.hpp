// Keep-alive failure detection and local views (§4.1).
//
// Every process broadcasts a keep-alive every `period` to all other
// configured processes and maintains a *local* view v_i: itself plus every
// process heard from within `timeout`. The paper is explicit that
// majority-based membership cannot be used in a home (there may be only
// one or two processes), so views are purely local and may disagree across
// processes — the delivery protocols are designed to tolerate that.
//
// Keep-alives also piggyback a small application payload (Rivulet uses it
// to gossip per-app processed watermarks, which bounds the backlog a newly
// promoted logic node replays — the ~20-event spike of Fig 7). The payload
// provider/handler hooks keep this module independent of the runtime.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/codec.hpp"
#include "net/transport.hpp"
#include "sim/simulation.hpp"

namespace riv::membership {

struct Config {
  Duration period{milliseconds(500)};
  Duration timeout{seconds(2)};  // §8.4: failure-detection threshold 2 s
};

class FailureDetector {
 public:
  using ViewChangeFn = std::function<void(const std::set<ProcessId>& view)>;
  using PayloadProvider = std::function<std::vector<std::byte>()>;
  using PayloadHandler = std::function<void(ProcessId from, BinaryReader& r)>;

  FailureDetector(sim::ProcessTimers& timers, net::Transport& transport,
                  std::vector<ProcessId> all_processes, Config config);

  void set_on_view_change(ViewChangeFn fn) { on_view_change_ = std::move(fn); }
  void set_payload_provider(PayloadProvider fn) { provider_ = std::move(fn); }
  void set_payload_handler(PayloadHandler fn) { handler_ = std::move(fn); }

  // Begin heartbeating. Initial view is optimistic (everyone alive), per
  // the prototype: a fresh process assumes peers are up until proven dead.
  void start();

  // Feed an incoming keep-alive (the runtime demultiplexes messages).
  void on_keepalive(const net::Message& msg);

  const std::set<ProcessId>& view() const { return view_; }
  bool alive(ProcessId p) const { return view_.count(p) != 0; }
  ProcessId self() const { return self_; }
  const std::vector<ProcessId>& all_processes() const { return all_; }

  // --- state capture (DESIGN.md §13) ---------------------------------
  // The last-heard table, the local view and the heartbeat timer.
  // Restore requires a constructed-but-not-started detector with its
  // hooks already installed (the runtime re-wires closures first).
  void clone_state(BinaryWriter& w) const;
  void restore_clone(BinaryReader& r);

 private:
  void tick();
  void recompute_view();

  sim::ProcessTimers* timers_;
  net::Transport* transport_;
  ProcessId self_;
  std::vector<ProcessId> all_;
  Config config_;

  std::map<ProcessId, TimePoint> last_heard_;
  std::set<ProcessId> view_;
  // Sorted mirror of view_ plus a scratch buffer: recompute_view() runs on
  // every received keep-alive, and the common "nothing changed" case must
  // not rebuild a std::set just to compare and discard it.
  std::vector<ProcessId> view_flat_;
  std::vector<ProcessId> scratch_;
  ViewChangeFn on_view_change_;
  PayloadProvider provider_;
  PayloadHandler handler_;
  bool started_{false};
  sim::TimerId tick_timer_{0};
};

}  // namespace riv::membership
